//! Name-based call-graph approximation and hot-path reachability.
//!
//! Edges are built from identifier references inside function bodies:
//! any identifier that names a workspace function becomes an edge to
//! every candidate that context cannot rule out. The resolution ladder
//! (see `resolve`) narrows only where Rust's expression grammar
//! guarantees the excluded candidates are impossible — `.name(` can
//! only be a method, a bare `name` can only be a free fn, `name:` is a
//! field label, `.name` without a call is a field access — and
//! qualified paths whose qualifier it cannot interpret **fall back to
//! every same-named candidate**. Unresolvable references therefore
//! stay reachable (the sound direction); references to external names
//! (`Vec::push`, `f64::max`) match no workspace function and produce
//! no edge.
//!
//! Function values count: a bare `helper` passed to `map` or stored in
//! a struct edges to `helper`, which is how closure-carrying assertion
//! factories keep their callees visible. The one dispatch the tokens
//! cannot see through is a closure *called through a field*
//! (`(self.func)(sample)`), so the assertion factories that create
//! those closures are rooted explicitly in [`ROOTS`].

use crate::items::{extract_fns, is_keyword, FileModel, FnDef};
use crate::lexer::TokKind;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The call graph over the analyzed subset of the workspace.
pub struct Graph {
    /// Every extracted function, in file order.
    pub fns: Vec<FnDef>,
    /// Function indices by bare name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Caller → callee-set, parallel to `fns`.
    pub edges: Vec<BTreeSet<usize>>,
}

/// Builds the graph over `files`; only files with `eligible[i]` get
/// their functions extracted (callers and callees alike).
pub fn build(files: &[FileModel], eligible: &[bool]) -> Graph {
    let mut fns = Vec::new();
    for (fi, fm) in files.iter().enumerate() {
        if eligible[fi] {
            fns.extend(extract_fns(fm, fi));
        }
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(i);
    }
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); fns.len()];
    for i in 0..fns.len() {
        let (b0, b1) = match fns[i].body {
            Some(r) => r,
            None => continue,
        };
        let fm = &files[fns[i].file];
        let lets = binding_scopes(fm, b0, b1);
        for k in b0..=b1 {
            if fm.kind(k) != TokKind::Ident {
                continue;
            }
            let nm = fm.t(k).trim_start_matches("r#");
            if is_keyword(nm) {
                continue;
            }
            let cands = match by_name.get(nm) {
                Some(c) => c,
                None => continue,
            };
            // A nested `fn nm` definition is not a reference.
            if k > 0 && fm.t(k - 1) == "fn" {
                continue;
            }
            for t in resolve(fm, k, &fns[i], &lets, cands, &fns, files) {
                edges[i].insert(t);
            }
        }
    }
    Graph {
        fns,
        by_name,
        edges,
    }
}

/// Narrows `cands` using the tokens around reference `k`. Each branch
/// is justified by Rust's expression grammar, so the narrowing stays
/// sound for workspace code:
///
/// - `path::name` — candidates whose `impl`/`trait` type or defining
///   module matches the qualifier; **falls back to every candidate**
///   when the qualifier is opaque (a crate name, a generic, `<T as
///   Tr>`), because an unresolvable qualified call may still land on
///   any of them.
/// - `.name(` — strictly a method call: candidates defined in an
///   `impl`/`trait`. No fallback: dot syntax cannot invoke a free fn,
///   so an empty method set means the callee is external.
/// - `.name` without `(` — a field access, never a method reference
///   (Rust has no bare method values via dot; a fn-typed field is
///   invoked as `(x.f)()`, and whatever fn was *stored* in the field
///   is caught as a value reference at the store site). No edge.
/// - bare `name:` — a struct-literal/pattern field name, parameter,
///   or binding annotation; never a value. No edge.
/// - bare `name` bound by the caller itself — a parameter, which is in
///   scope over the whole body, a `let` statement that ended before
///   `k` in a block still open at `k`, or a `for` loop whose body
///   holds `k` (see [`binding_scopes`]) — or the `let` or `for`
///   pattern's own name: a local, never a fn. A free fn of the same
///   name is then reachable only through a path, which the first
///   branch resolves. No edge. A `for` loop's iterator expression and
///   the code after the loop are outside its binding's scope, so their
///   names keep edges. Closure parameters and `match`/`if let` patterns
///   are not tracked, so their names keep edges.
/// - any other bare `name` — a possible fn-as-value reference
///   (`map(helper)`, `fold(acc, merge)`) or direct call `name(…)`;
///   both resolve only to free functions, since naming a method
///   requires a path qualifier. Methods are excluded, no fallback.
fn resolve(
    fm: &FileModel,
    k: usize,
    caller: &FnDef,
    lets: &[BindingScope],
    cands: &[usize],
    fns: &[FnDef],
    files: &[FileModel],
) -> Vec<usize> {
    let prev = if k > 0 { fm.t(k - 1) } else { "" };
    let next = fm.t(k + 1);
    if prev == "::" && k >= 2 && fm.kind(k - 2) == TokKind::Ident {
        let q = fm.t(k - 2).trim_start_matches("r#");
        let narrowed: Vec<usize> = if q == "Self" {
            match &caller.self_type {
                Some(st) => cands
                    .iter()
                    .copied()
                    .filter(|&c| fns[c].self_type.as_deref() == Some(st.as_str()))
                    .collect(),
                None => Vec::new(),
            }
        } else {
            cands
                .iter()
                .copied()
                .filter(|&c| {
                    fns[c].self_type.as_deref() == Some(q)
                        || file_stem(&files[fns[c].file].path) == q
                })
                .collect()
        };
        if narrowed.is_empty() {
            cands.to_vec()
        } else {
            narrowed
        }
    } else if prev == "." {
        if next == "(" {
            cands
                .iter()
                .copied()
                .filter(|&c| fns[c].self_type.is_some())
                .collect()
        } else {
            Vec::new()
        }
    } else if next == ":" || (prev != "::" && binds_local(fm, k, caller, lets)) {
        Vec::new()
    } else {
        cands
            .iter()
            .copied()
            .filter(|&c| fns[c].self_type.is_none())
            .collect()
    }
}

/// A plain-name binding's `(name, open, close)` token indices: the
/// binding is in scope strictly between `open` and `close`. For a `let`
/// statement they are its `;` and the `}` closing its block; for a
/// `for` loop, the braces of the loop body.
type BindingScope = (usize, usize, usize);

/// The plain-name bindings of the body `b0..=b1`: `let name` and `let
/// mut name` statements, and `for name in` and `for mut name in`
/// loops. A `let` counts only where a statement starts (after `;`, `{`
/// or `}`, so not `if let` or `while let`); a `for` loop's body is the
/// first `{` after `in` outside parentheses and brackets (an iterator
/// expression cannot be a bare struct literal). Any other pattern binds
/// nothing here, so its names keep their edges.
fn binding_scopes(fm: &FileModel, b0: usize, b1: usize) -> Vec<BindingScope> {
    let mut out = Vec::new();
    for l in b0 + 1..b1 {
        let name = if fm.t(l + 1) == "mut" { l + 2 } else { l + 1 };
        if fm.kind(name) != TokKind::Ident {
            continue;
        }
        if fm.t(l) == "for" && fm.t(name + 1) == "in" {
            out.extend(for_body(fm, name + 2, b1).map(|(open, close)| (name, open, close)));
            continue;
        }
        if fm.t(l) != "let"
            || !matches!(fm.t(l - 1), ";" | "{" | "}")
            || !matches!(fm.t(name + 1), ":" | "=" | ";")
        {
            continue;
        }
        let (mut depth, mut semi) = (0i32, None);
        for j in name + 1..=b1 {
            match fm.t(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth > 0 => depth -= 1,
                ")" | "]" | "}" => {
                    out.extend(semi.map(|semi| (name, semi, j)));
                    break;
                }
                ";" if depth == 0 && semi.is_none() => semi = Some(j),
                _ => {}
            }
        }
    }
    out
}

/// The `{` and `}` of the body of a `for` loop whose iterator
/// expression starts at `from`, if both lie before `b1`.
fn for_body(fm: &FileModel, from: usize, b1: usize) -> Option<(usize, usize)> {
    let (mut depth, mut open) = (0i32, None);
    for j in from..=b1 {
        match (fm.t(j), open) {
            ("(" | "[", None) => depth += 1,
            (")" | "]", None) => depth -= 1,
            ("{", None) if depth == 0 => open = Some(j),
            ("{", Some(_)) => depth += 1,
            ("}", Some(open)) if depth == 0 => return Some((open, j)),
            ("}", Some(_)) => depth -= 1,
            _ => {}
        }
    }
    None
}

/// Whether bare reference `k` names a binding of `caller` rather than a
/// function: one of its parameters, a `let` or `for` pattern's own
/// name, or a `let` or `for` binding in scope at `k`.
fn binds_local(fm: &FileModel, k: usize, caller: &FnDef, lets: &[BindingScope]) -> bool {
    let nm = fm.t(k).trim_start_matches("r#");
    caller.params.iter().any(|p| p == nm)
        || lets.iter().any(|&(name, open, close)| {
            k == name || (open < k && k < close && fm.t(name).trim_start_matches("r#") == nm)
        })
}

/// `crates/geom/src/matchers.rs` → `matchers`.
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

/// One hot-path root declaration.
pub enum RootSpec {
    /// Every function defined in this file.
    File(&'static str),
    /// A method: (`impl`/`trait` self type, name).
    Method(&'static str, &'static str),
    /// Every function named exactly this.
    Name(&'static str),
    /// Every function whose name ends with this (the assertion-factory
    /// convention — the closures they build run on the hot path but
    /// dispatch through a field the tokens cannot follow).
    NameSuffix(&'static str),
}

impl RootSpec {
    pub fn describe(&self) -> String {
        match self {
            RootSpec::File(f) => format!("every fn in {f}"),
            RootSpec::Method(t, n) => format!("{t}::{n}"),
            RootSpec::Name(n) => format!("fn {n}"),
            RootSpec::NameSuffix(s) => format!("fns named *{s}"),
        }
    }
}

/// The hot-path roots: the scoring drivers the paper's replication
/// invariants (stream==batch, indexed==reference, service==sequential)
/// are stated over, the service's per-session scoring entry points, the
/// pool's parallel map (the closures it runs are scoring closures), the
/// geometry matcher entry points, and the assertion factories (see
/// module docs for why factories are roots).
pub const ROOTS: &[RootSpec] = &[
    RootSpec::File("crates/scenario/src/drivers.rs"),
    RootSpec::File("crates/geom/src/matchers.rs"),
    RootSpec::Method("MonitorService", "drain"),
    RootSpec::Method("MonitorService", "finish"),
    RootSpec::Method("ThreadPool", "map_indexed"),
    RootSpec::Method("ThreadPool", "map_indexed_coarse"),
    RootSpec::NameSuffix("_assertion"),
    RootSpec::NameSuffix("_assertion_set"),
    RootSpec::Name("assertion_set"),
    RootSpec::Name("prepared_set"),
    RootSpec::Name("preparer"),
];

/// Resolves the root specs; returns root fn indices and the specs that
/// matched nothing (each of those is a lint violation — a silently
/// unanchored root would make the whole pass vacuous).
pub fn resolve_roots(g: &Graph, files: &[FileModel]) -> (Vec<usize>, Vec<String>) {
    let mut roots = Vec::new();
    let mut missing = Vec::new();
    for spec in ROOTS {
        let before = roots.len();
        match spec {
            RootSpec::File(path) => {
                for (i, f) in g.fns.iter().enumerate() {
                    if files[f.file].path == *path {
                        roots.push(i);
                    }
                }
            }
            RootSpec::Method(ty, name) => {
                for (i, f) in g.fns.iter().enumerate() {
                    if f.name == *name && f.self_type.as_deref() == Some(*ty) {
                        roots.push(i);
                    }
                }
            }
            RootSpec::Name(name) => {
                for (i, f) in g.fns.iter().enumerate() {
                    if f.name == *name {
                        roots.push(i);
                    }
                }
            }
            RootSpec::NameSuffix(suf) => {
                for (i, f) in g.fns.iter().enumerate() {
                    if f.name.ends_with(suf) {
                        roots.push(i);
                    }
                }
            }
        }
        if roots.len() == before {
            missing.push(spec.describe());
        }
    }
    roots.sort_unstable();
    roots.dedup();
    (roots, missing)
}

/// BFS over the edge sets; returns the reachable flag per fn.
pub fn reachable(g: &Graph, roots: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; g.fns.len()];
    let mut q: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if !seen[r] {
            seen[r] = true;
            q.push_back(r);
        }
    }
    while let Some(i) = q.pop_front() {
        for &j in &g.edges[i] {
            if !seen[j] {
                seen[j] = true;
                q.push_back(j);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> (Vec<FileModel>, Graph) {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(p, s)| FileModel::new(p.to_string(), s.to_string()))
            .collect();
        let eligible = vec![true; models.len()];
        let g = build(&models, &eligible);
        (models, g)
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.by_name[name][0]
    }

    #[test]
    fn free_call_method_call_and_value_ref_make_edges() {
        let (_m, g) = ws(&[(
            "crates/x/src/lib.rs",
            "fn a() { b(); }\nfn b() {}\nstruct S;\nimpl S { fn m(&self) {} }\nfn c(s: &S) { s.m(); }\nfn d(v: &[u8]) { v.iter().map(helper); }\nfn helper(_x: &u8) -> u8 { 0 }",
        )]);
        assert!(g.edges[idx(&g, "a")].contains(&idx(&g, "b")));
        assert!(g.edges[idx(&g, "c")].contains(&idx(&g, "m")));
        assert!(g.edges[idx(&g, "d")].contains(&idx(&g, "helper")));
    }

    #[test]
    fn qualified_calls_narrow_by_type_and_module() {
        let (_m, g) = ws(&[
            (
                "crates/x/src/alpha.rs",
                "pub struct A;\nimpl A { pub fn go(&self) {} }\npub fn free() {}",
            ),
            (
                "crates/x/src/beta.rs",
                "pub struct B;\nimpl B { pub fn go(&self) {} }",
            ),
            (
                "crates/x/src/user.rs",
                "fn use_a(a: &A) { A::go(a); alpha::free(); }",
            ),
        ]);
        let user = idx(&g, "use_a");
        let a_go = g.by_name["go"]
            .iter()
            .copied()
            .find(|&i| g.fns[i].self_type.as_deref() == Some("A"))
            .unwrap();
        let b_go = g.by_name["go"]
            .iter()
            .copied()
            .find(|&i| g.fns[i].self_type.as_deref() == Some("B"))
            .unwrap();
        assert!(g.edges[user].contains(&a_go));
        assert!(
            !g.edges[user].contains(&b_go),
            "A::go must not edge to B::go"
        );
        assert!(g.edges[user].contains(&idx(&g, "free")));
    }

    #[test]
    fn unresolvable_names_keep_every_candidate() {
        // `q.go()` — a method call on an unknown receiver must stay
        // edged to every method named `go` (sound over-approximation).
        let (_m, g) = ws(&[
            (
                "crates/x/src/alpha.rs",
                "pub struct A;\nimpl A { pub fn go(&self) {} }",
            ),
            (
                "crates/x/src/beta.rs",
                "pub struct B;\nimpl B { pub fn go(&self) {} }",
            ),
            ("crates/x/src/user.rs", "fn call(q: &Q) { q.go(); }"),
        ]);
        let user = idx(&g, "call");
        for &i in &g.by_name["go"] {
            assert!(g.edges[user].contains(&i));
        }
    }

    #[test]
    fn self_calls_resolve_through_the_impl_type() {
        let (_m, g) = ws(&[(
            "crates/x/src/lib.rs",
            "struct A;\nimpl A { fn f() { Self::g(); } fn g() {} }\nstruct B;\nimpl B { fn g() {} }",
        )]);
        let f = idx(&g, "f");
        let a_g = g.by_name["g"]
            .iter()
            .copied()
            .find(|&i| g.fns[i].self_type.as_deref() == Some("A"))
            .unwrap();
        let b_g = g.by_name["g"]
            .iter()
            .copied()
            .find(|&i| g.fns[i].self_type.as_deref() == Some("B"))
            .unwrap();
        assert!(g.edges[f].contains(&a_g));
        assert!(!g.edges[f].contains(&b_g));
    }

    #[test]
    fn parameters_and_earlier_lets_shadow_free_fns() {
        let (_m, g) = ws(&[(
            "crates/x/src/lib.rs",
            "pub fn run(_n: u8) -> u8 { 0 }\n\
             fn param(run: &dyn Fn()) { run(); }\n\
             fn path(run: u8) { crate::run(run); }\n\
             fn closure() { let run = || 1; run(); }\n\
             fn mut_local() { let mut run = 0; run += 1; }\n\
             fn block() { { let run = || 1; } run(1); }\n\
             fn init() { let run = run(1); }\n\
             fn if_let(x: Option<u8>) { if let Some(run) = x { run(); } }\n\
             fn loop_body(v: Vec<fn()>) { for run in v { run(); } }\n\
             fn loop_iter() { for run in run(1) {} }\n\
             fn after_loop(v: Vec<u8>) { for run in v { let _ = run; } run(1); }",
        )]);
        let run = idx(&g, "run");
        let edges = |f: &str| g.edges[idx(&g, f)].contains(&run);
        assert!(!edges("param"), "a parameter shadows the free fn");
        assert!(edges("path"), "a path still names the free fn");
        assert!(!edges("closure"), "a let-bound closure shadows it");
        assert!(
            !edges("mut_local"),
            "a let pattern's own name is no reference"
        );
        assert!(edges("block"), "the let's block closed before the call");
        assert!(edges("init"), "the initializer still sees the free fn");
        assert!(edges("if_let"), "untracked patterns keep their edges");
        assert!(!edges("loop_body"), "a for binding shadows it in the body");
        assert!(edges("loop_iter"), "the iterator still sees the free fn");
        assert!(
            edges("after_loop"),
            "the loop's body closed before the call"
        );
    }

    #[test]
    fn external_names_make_no_edges() {
        let (_m, g) = ws(&[(
            "crates/x/src/lib.rs",
            "fn a(v: &mut Vec<u8>) { v.push(1); v.len(); f64::max(1.0, 2.0); }",
        )]);
        assert!(g.edges[idx(&g, "a")].is_empty());
    }

    #[test]
    fn reachability_is_transitive_and_bounded() {
        let (m, g) = ws(&[(
            "crates/scenario/src/drivers.rs",
            "pub fn score_window() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() { leaf(); }",
        )]);
        let (roots, missing) = {
            // Only the File root matches this mini-workspace.
            let mut roots = Vec::new();
            for (i, f) in g.fns.iter().enumerate() {
                if m[f.file].path == "crates/scenario/src/drivers.rs" && f.name == "score_window" {
                    roots.push(i);
                }
            }
            (roots, Vec::<String>::new())
        };
        assert!(missing.is_empty());
        let seen = reachable(&g, &roots);
        assert!(seen[idx(&g, "score_window")]);
        assert!(seen[idx(&g, "mid")]);
        assert!(seen[idx(&g, "leaf")]);
        assert!(
            !seen[idx(&g, "island")],
            "unrooted fn must stay unreachable"
        );
    }

    #[test]
    fn root_specs_resolve_and_report_missing() {
        let (m, g) = ws(&[
            (
                "crates/scenario/src/drivers.rs",
                "pub fn score_window() {}",
            ),
            (
                "crates/geom/src/matchers.rs",
                "pub fn nms_indices() {}",
            ),
            (
                "crates/service/src/service.rs",
                "pub struct MonitorService;\nimpl MonitorService { pub fn drain(&self) {} pub fn finish(&self) {} }",
            ),
            (
                "crates/core/src/runtime.rs",
                "pub struct ThreadPool;\nimpl ThreadPool { pub fn map_indexed(&self) {} pub fn map_indexed_coarse(&self) {} }",
            ),
            (
                "crates/domains/src/video.rs",
                "pub fn flicker_assertion() {}\npub fn video_assertion_set() {}\nimpl S { pub fn assertion_set(&self) {} pub fn prepared_set(&self) {} pub fn preparer(&self) {} }",
            ),
        ]);
        let (roots, missing) = resolve_roots(&g, &m);
        assert!(missing.is_empty(), "missing: {missing:?}");
        // Every declared fn above is a root.
        assert_eq!(roots.len(), g.fns.len());
        let g2 = build(&m[..1], &[true]);
        let (_, missing2) = resolve_roots(&g2, &m[..1]);
        assert!(
            !missing2.is_empty(),
            "dropping files must surface missing roots"
        );
    }
}
