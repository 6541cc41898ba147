//! `omg-lint` — the workspace invariant linter, gated in CI.
//!
//! Second generation: instead of stripping comments/strings with an
//! ad-hoc scanner and matching substrings, the linter now lexes every
//! source file into spanned Rust tokens ([`lexer`]), extracts function
//! definitions with `impl`/`trait` attribution ([`items`]), and builds
//! a name-based call graph ([`graph`]) so two rules can reason about
//! **reachability from the scoring hot path** rather than file paths:
//!
//! - **`panic-on-hot-path`** — no function transitively reachable from
//!   the hot-path roots (`score_window`, the `omg_geom::matchers`
//!   entry points, `ThreadPool::map_indexed{,_coarse}`, the stream
//!   drivers, the service's `MonitorService::{drain, finish}`, and the
//!   assertion factories) may contain
//!   `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
//!   or a slice/array index, except sites justified by a `// PANIC:`
//!   comment and pinned, per file, in `rules::PANIC_ALLOWED`.
//! - **`float-order-on-hot-path`** — on the same reachable set, float
//!   ordering must be NaN-total and thread-count-independent: no
//!   `partial_cmp`, no `f64::max`/`f64::min` reduction chains, no
//!   `==`/`!=` against float literals; route comparisons through
//!   `total_cmp` or `omg_core::float::{fmax, fmin}`. Exceptions carry
//!   `// FLOAT:` justifications pinned in `rules::FLOAT_ALLOWED`.
//!
//! The call graph is an over-approximation built from identifier
//! references: narrowing (by `Type::`, `Self::`, method position) only
//! happens when the tokens justify it, and unresolvable references
//! keep every same-named candidate — so for workspace-internal code a
//! function the rules treat as unreachable really is unreachable. The
//! one indirection tokens cannot see through — closures invoked via a
//! stored field, as `FnAssertion::check` does — is closed by rooting
//! the assertion factories that build those closures.
//!
//! The five first-generation lexical rules ride on the same token
//! stream (which killed the word-boundary and string-masking false
//! positives the old stripper had): the `unsafe` allowlist, the thread
//! facade, the scoring-path hash ban, the `Ordering::Relaxed` ledger,
//! and IoU confinement to `omg_geom`. See [`rules`] for the ledgers —
//! each is count-pinned so any drift fails CI until re-audited.
//!
//! Run `cargo run -p omg-lint` from the workspace root; `--json`
//! emits the machine-readable report CI archives, `--explain <rule>`
//! prints a rule's rationale. Exits 0 clean, 1 on violations, 2 on
//! usage or I/O errors.

pub mod graph;
pub mod items;
pub mod json;
pub mod lexer;
pub mod rules;

use items::FileModel;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use rules::Violation;

/// One source file handed to [`analyze`]: workspace-relative path
/// (with `/` separators) plus contents.
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// What a workspace scan covered and found.
#[derive(Debug)]
pub struct Summary {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Functions reachable from the hot-path roots in the call graph.
    pub reachable_fns: usize,
    /// Every rule violation found, ordered by (file, line, rule).
    pub violations: Vec<Violation>,
    /// The scanned workspace-relative paths (for coverage checks).
    pub files: Vec<String>,
    /// Library `pub` items per crate directory (`crates/core`).
    pub pub_items: BTreeMap<String, usize>,
}

/// Runs every rule over the given sources. Files under `perfbench/`
/// are read for the names they use only: no rule runs on them.
pub fn analyze(files: Vec<SourceFile>) -> Summary {
    let (name_only, mut models): (Vec<FileModel>, Vec<FileModel>) = files
        .into_iter()
        .map(|s| FileModel::new(s.path, s.text))
        .partition(|m| m.path.starts_with(NAME_ONLY_ROOT));
    let gated: Vec<String> = models.iter().flat_map(FileModel::gated_mod_files).collect();
    for m in &mut models {
        m.is_test |= gated.contains(&m.path);
    }
    let mut violations = Vec::new();
    for m in &models {
        rules::lexical(m, &mut violations);
    }
    let reachable_fns = rules::graph_pass(&models, &mut violations);
    let pub_items = rules::pub_pass(&models, &name_only, &mut violations);
    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Summary {
        files_scanned: models.len(),
        reachable_fns,
        violations,
        files: models.iter().map(|m| m.path.clone()).collect(),
        pub_items,
    }
}

/// Source roots scanned relative to the workspace root. `crates/`
/// recursion covers `src/`, `benches/`, and `src/bin/` alike;
/// `vendor/` and fixture directories are skipped by the walker.
const SCAN_ROOTS: &[&str] = &[
    "crates",
    "examples",
    "tests",
    "perfbench/src",
    "perfbench/tests",
];

/// The benchmark package, outside the workspace: its sources count as
/// uses of library items, and nothing else is checked there.
const NAME_ONLY_ROOT: &str = "perfbench/";

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "vendor" || name == "fixtures" {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Scans the workspace rooted at `root` (must contain `Cargo.toml`).
///
/// # Errors
///
/// Returns any I/O error from walking or reading the source tree.
pub fn scan_workspace(root: &Path) -> std::io::Result<Summary> {
    let mut paths = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile { path: rel, text });
    }
    Ok(analyze(files))
}

/// The rule catalog: every rule name the linter can emit, with the
/// rationale `--explain` prints.
pub const RULES: &[(&str, &str)] = &[
    (
        "unsafe-outside-allowlist",
        "The `unsafe` keyword (and `#[allow(unsafe_code)]`) may appear only in the \
         worker pool's lifetime-erased job cell (crates/core/src/runtime.rs), whose \
         handshake is model-checked by omg-verify. Everywhere else, write safe code or \
         extend the audited UNSAFE_ALLOWED table in omg-lint — a reviewable diff.",
    ),
    (
        "undocumented-unsafe",
        "Inside the allowlisted file, every `unsafe {` block and `unsafe impl` must \
         carry a `// SAFETY:` comment starting within the 10 lines above it, so the \
         proof obligation is stated next to the code that discharges it.",
    ),
    (
        "ad-hoc-thread",
        "std::thread spawn/scope/Builder may be named only by the thread facade \
         (crates/core/src/sync.rs) and the model scheduler (crates/verify/src/sched.rs). \
         Everything else goes through omg_core::runtime::ThreadPool so all concurrency \
         stays in the one model-checked place.",
    ),
    (
        "hash-on-scoring-path",
        "Scoring output must be bit-for-bit deterministic, and HashMap/HashSet \
         iteration order is randomized across builds. The scoring crates may not use \
         them except for count-pinned keyed-access-only uses in HASH_ALLOWED; any new \
         mention drifts the count and forces a re-audit.",
    ),
    (
        "unaudited-relaxed",
        "Every Ordering::Relaxed site in the workspace must be justified in \
         RELAXED_LEDGER with a memory-ordering argument; the per-file site count is \
         pinned so a new site (or a removed one) fails until the ledger is re-audited.",
    ),
    (
        "pairwise-iou-outside-geom",
        "Direct `.iou(` / `.iou_bev_aabb(` calls belong in crates/geom/, where the \
         grid-indexed matchers and their O(n^2) reference live; everywhere else routes \
         matching through omg_geom::matchers, except the count-pinned bounded small-n \
         uses in IOU_ALLOWED. This keeps every matching loop on the sub-quadratic, \
         equivalence-tested path.",
    ),
    (
        "panic-on-hot-path",
        "No function transitively reachable from the hot-path roots (score_window, \
         omg_geom::matchers::*, ThreadPool::map_indexed{,_coarse}, the stream drivers, \
         the service's MonitorService::{drain, finish}, the assertion factories) may \
         contain .unwrap()/.expect(), \
         panic!/unreachable!/todo!/unimplemented!, or a slice/array index: a panicking \
         monitor is a silently absent monitor. Either restructure (Result/Option, \
         iterators, get()), or justify the site with a `// PANIC:` comment within 10 \
         lines and pin the per-file justified count in PANIC_ALLOWED. The call graph \
         over-approximates: unresolvable calls stay reachable, so a clean pass is \
         meaningful.",
    ),
    (
        "float-order-on-hot-path",
        "On the hot-path reachable set, float ordering must be NaN-total and \
         thread-count-independent so scores are bit-for-bit reproducible at any pool \
         width: no partial_cmp (ties/NaN resolve arbitrarily), no f64::max / f64::min \
         reduction chains (they drop NaN and encode fold order), no ==/!= against \
         float literals. Use total_cmp or omg_core::float::{fmax,fmin}; justified \
         exceptions carry `// FLOAT:` and a FLOAT_ALLOWED count pin. Parallel \
         reductions must merge in index order (ThreadPool::map_indexed already does).",
    ),
    (
        "unreferenced-pub",
        "Every plain `pub` fn, struct, enum, trait, type, const, static or mod in a \
         library crate's src/ (bins and omg-lint excluded) must be named as an \
         identifier by another scanned file or by perfbench's sources; comments and \
         `pub use` re-exports do not count. Otherwise delete it or drop `pub`. An item \
         that must stay public although nothing else names it goes in PUB_ALLOWED with \
         one of three reasons: a public signature names it, the paper's API names it, \
         or a ROADMAP item names it. An entry whose item is gone or now named elsewhere \
         fails, so the ledger only shrinks.",
    ),
    (
        "hot-path-root-missing",
        "Each declared hot-path root must resolve to at least one function in the \
         call graph. If a root resolves to nothing (an entry point was renamed or a \
         file moved), the reachability pass would silently go vacuous over it — so \
         that is itself a violation, keeping the panic/float rules honest.",
    ),
];

/// The `--explain` text for `rule`, if known.
pub fn explain(rule: &str) -> Option<&'static str> {
    RULES.iter().find(|(r, _)| *r == rule).map(|(_, why)| *why)
}

fn rule_names() -> String {
    RULES
        .iter()
        .map(|(r, _)| format!("  {r}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// CLI entry; `args` are the process arguments after the binary name.
/// Scans the current directory as the workspace root and returns the
/// process exit code (0 clean, 1 violations, 2 usage/I-O).
pub fn run_cli(args: &[String]) -> i32 {
    let mut as_json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => as_json = true,
            "--explain" => {
                return match it.next() {
                    Some(rule) => match explain(rule) {
                        Some(why) => {
                            println!("{rule}\n\n{why}");
                            0
                        }
                        None => {
                            eprintln!("omg-lint: unknown rule `{rule}`; rules:\n{}", rule_names());
                            2
                        }
                    },
                    None => {
                        eprintln!(
                            "omg-lint: --explain needs a rule name; rules:\n{}",
                            rule_names()
                        );
                        2
                    }
                };
            }
            other => {
                eprintln!("omg-lint: unknown argument `{other}` (try --json or --explain <rule>)");
                return 2;
            }
        }
    }
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if !root.join("Cargo.toml").exists() {
        eprintln!("omg-lint: run from the workspace root (no Cargo.toml here)");
        return 2;
    }
    match scan_workspace(&root) {
        Ok(summary) => {
            if as_json {
                println!("{}", json::render(&summary));
                return if summary.violations.is_empty() { 0 } else { 1 };
            }
            for v in &summary.violations {
                println!("{v}");
            }
            if summary.violations.is_empty() {
                println!(
                    "omg-lint: clean ({} files, {} hot-path-reachable fns, {} library pub \
                     items; lexical rules + panic-freedom + float-determinism over the \
                     reachable set + the surface rule)",
                    summary.files_scanned,
                    summary.reachable_fns,
                    summary.pub_items.values().sum::<usize>()
                );
                0
            } else {
                println!(
                    "omg-lint: {} violation(s) in {} files scanned ({} reachable fns)",
                    summary.violations.len(),
                    summary.files_scanned,
                    summary.reachable_fns
                );
                1
            }
        }
        Err(err) => {
            eprintln!("omg-lint: scan failed: {err}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lexical-rule harness: one file, lexical rules only.
    fn scan_one(file: &str, src: &str) -> Vec<Violation> {
        let m = FileModel::new(file.to_string(), src.to_string());
        let mut out = Vec::new();
        rules::lexical(&m, &mut out);
        out
    }

    /// Full-pipeline harness over an in-memory mini workspace.
    fn analyze_files(files: &[(&str, &str)]) -> Summary {
        analyze(
            files
                .iter()
                .map(|(p, s)| SourceFile {
                    path: p.to_string(),
                    text: s.to_string(),
                })
                .collect(),
        )
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    /// Count of violations of one rule (fixture files standing in for
    /// ledgered paths also trip count-drift checks, and mini
    /// workspaces miss most hot-path roots, so per-rule tests filter).
    fn count_rule(v: &[Violation], rule: &str) -> usize {
        v.iter().filter(|x| x.rule == rule).count()
    }

    // ---- lexical rules fire on their fixtures --------------------------

    #[test]
    fn unsafe_outside_allowlist_fires() {
        let fixture = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let got = scan_one("crates/core/src/monitor.rs", fixture);
        assert_eq!(rules_of(&got), vec!["unsafe-outside-allowlist"]);
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn allow_unsafe_attr_outside_allowlist_fires() {
        let fixture = "#[allow(unsafe_code)]\nmod m {}\n";
        let got = scan_one("crates/eval/src/lib.rs", fixture);
        assert_eq!(rules_of(&got), vec!["unsafe-outside-allowlist"]);
    }

    #[test]
    fn undocumented_unsafe_in_allowed_file_fires() {
        let fixture = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let got = scan_one("crates/core/src/runtime.rs", fixture);
        assert_eq!(count_rule(&got, "undocumented-unsafe"), 1);
    }

    #[test]
    fn documented_unsafe_in_allowed_file_is_clean() {
        let fixture =
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller keeps p alive.\n    unsafe { *p }\n}\n";
        let got = scan_one("crates/core/src/runtime.rs", fixture);
        assert_eq!(count_rule(&got, "undocumented-unsafe"), 0);
        assert_eq!(count_rule(&got, "unsafe-outside-allowlist"), 0);
    }

    #[test]
    fn safety_comment_survives_an_attribute_in_between() {
        let fixture = "// SAFETY: the pointer is pinned by the handshake.\n#[allow(unsafe_code)]\nunsafe impl Send for J {}\n";
        let got = scan_one("crates/core/src/runtime.rs", fixture);
        assert_eq!(count_rule(&got, "undocumented-unsafe"), 0);
    }

    #[test]
    fn ad_hoc_thread_fires() {
        let fixture = "pub fn go() {\n    std::thread::spawn(|| {});\n}\n";
        let got = scan_one("crates/service/src/service.rs", fixture);
        assert_eq!(count_rule(&got, "ad-hoc-thread"), 1);
        let fixture2 = "use std::thread;\n";
        let got2 = scan_one("crates/core/src/stream.rs", fixture2);
        assert_eq!(rules_of(&got2), vec!["ad-hoc-thread"]);
    }

    #[test]
    fn facade_files_may_touch_std_thread() {
        let fixture = "pub fn s() { std::thread::Builder::new(); }\n";
        assert!(scan_one("crates/core/src/sync.rs", fixture).is_empty());
        assert!(scan_one("crates/verify/src/sched.rs", fixture).is_empty());
    }

    #[test]
    fn hash_on_scoring_path_fires() {
        let fixture = "use std::collections::HashMap;\n";
        let got = scan_one("crates/core/src/registry.rs", fixture);
        assert_eq!(rules_of(&got), vec!["hash-on-scoring-path"]);
        // …but not outside the scoring scope.
        assert!(scan_one("crates/bench/src/lib.rs", fixture).is_empty());
    }

    #[test]
    fn audited_hash_count_drift_fires() {
        // ccmab.rs is audited for exactly 3 mentioning lines; 1 drifts.
        let fixture = "use std::collections::HashMap;\n";
        let got = scan_one("crates/active/src/ccmab.rs", fixture);
        assert_eq!(rules_of(&got), vec!["hash-on-scoring-path"]);
        assert!(got[0].message.contains("drifted"), "{}", got[0].message);
    }

    #[test]
    fn unaudited_relaxed_fires() {
        let fixture = "fn f(c: &std::sync::atomic::AtomicUsize) -> usize {\n    c.load(std::sync::atomic::Ordering::Relaxed)\n}\n";
        let got = scan_one("crates/core/src/severity.rs", fixture);
        assert_eq!(rules_of(&got), vec!["unaudited-relaxed"]);
    }

    #[test]
    fn relaxed_ledger_count_drift_fires() {
        let fixture = "fn f(c: &A) { c.load(Ordering::Relaxed); }\n";
        let got = scan_one("crates/service/src/service.rs", fixture);
        assert_eq!(rules_of(&got), vec!["unaudited-relaxed"]);
        assert!(got[0].message.contains("drifted"), "{}", got[0].message);
    }

    #[test]
    fn pairwise_iou_outside_geom_fires() {
        let fixture = "fn worst(a: &[B], b: &[B]) -> f64 {\n    a[0].bbox.iou(&b[0].bbox)\n}\n";
        let got = scan_one("crates/track/src/tracker.rs", fixture);
        assert_eq!(rules_of(&got), vec!["pairwise-iou-outside-geom"]);
        assert_eq!(got[0].line, 2);
        // The BEV variant is confined too.
        let bev = "fn f(a: &B3, b: &B3) -> f64 { a.iou_bev_aabb(b) }\n";
        assert_eq!(
            rules_of(&scan_one("crates/domains/src/fusion.rs", bev)),
            vec!["pairwise-iou-outside-geom"]
        );
    }

    #[test]
    fn iou_inside_geom_is_clean() {
        let fixture = "fn f(a: &BBox2D, b: &BBox2D) -> f64 { a.iou(b) }\n";
        assert!(scan_one("crates/geom/src/reference.rs", fixture).is_empty());
        assert!(scan_one("crates/geom/tests/spatial_proptests.rs", fixture).is_empty());
    }

    #[test]
    fn indexed_matcher_calls_do_not_trip_the_iou_rule() {
        let fixture = "fn f(a: &[BBox2D], b: &[BBox2D]) -> Vec<(f64, usize, usize)> {\n    omg_geom::matchers::iou_pairs(a, b, 0.5)\n}\n";
        assert!(scan_one("crates/track/src/tracker.rs", fixture).is_empty());
    }

    #[test]
    fn audited_iou_count_drift_fires() {
        // detection.rs is audited for exactly 1 mentioning line; 2 drift.
        let fixture =
            "fn f(a: &B, b: &B) -> f64 {\n    a.bbox.iou(&b.bbox);\n    b.bbox.iou(&a.bbox)\n}\n";
        let got = scan_one("crates/eval/src/detection.rs", fixture);
        assert_eq!(rules_of(&got), vec!["pairwise-iou-outside-geom"]);
        assert!(got[0].message.contains("drifted"), "{}", got[0].message);
    }

    // ---- the lexer keeps prose, strings, and literals out of rules -----

    #[test]
    fn comments_strings_and_tests_do_not_trip_rules() {
        let fixture = concat!(
            "//! Docs may say unsafe and std::thread::spawn and HashMap freely.\n",
            "/* block comments too: Ordering::Relaxed */\n",
            "/* nested /* block */ comments: unsafe { } */\n",
            "const P: &str = \"std::thread::spawn is banned\";\n",
            "const R: &str = r#\"unsafe { HashMap }\"#;\n",
            "const B: &[u8] = b\"HashSet // unsafe\";\n",
            "const C: char = '\"';\n",
            "const BC: u8 = b'\"';\n",
            "fn lifetimes<'a>(x: &'a u8) -> &'a u8 { x }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::collections::HashSet;\n",
            "    fn t() { std::thread::scope(|_| {}); }\n",
            "}\n",
        );
        assert!(scan_one("crates/core/src/database.rs", fixture).is_empty());
    }

    #[test]
    fn word_boundaries_respect_unsafe_code_attr() {
        let fixture = "#![deny(unsafe_code)]\n";
        assert!(scan_one("crates/core/src/lib.rs", fixture).is_empty());
    }

    #[test]
    fn stripper_blind_spots_are_fixed() {
        // Each of these desynchronized the old character-level
        // stripper: a byte literal holding a quote, a char holding a
        // slash pair, and a raw string with hashes. After any of them,
        // a real violation must still be seen and a quoted fake must
        // still be ignored.
        let cases = [
            "const Q: u8 = b'\"';\nfn f() { std::thread::spawn(|| {}); }\n",
            "const S: char = '/';\nconst T: char = '/';\nfn f() { std::thread::spawn(|| {}); }\n",
            "const R: &str = r##\"text \"# std::thread::spawn \"##;\nfn f() { std::thread::spawn(|| {}); }\n",
        ];
        for src in cases {
            let got = scan_one("crates/core/src/monitor.rs", src);
            assert_eq!(rules_of(&got), vec!["ad-hoc-thread"], "fixture: {src}");
        }
    }

    // ---- panic-freedom over the reachable set --------------------------

    /// A mini workspace whose only root is `score_window` (fixture
    /// files sit at real rooted paths so resolve_roots anchors there).
    fn hot(body_of_helper: &str) -> Summary {
        analyze_files(&[
            (
                "crates/scenario/src/toy.rs",
                "pub fn toy_assertion() { helper(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                &format!("pub fn helper(v: &[u8]) -> u8 {{ {body_of_helper} }}\n"),
            ),
        ])
    }

    #[test]
    fn panic_rule_fires_on_reachable_unwrap_expect_and_index() {
        let s = hot("let a = v.first().unwrap(); let b = v.first().expect(\"x\"); a + b + v[0]");
        assert_eq!(
            count_rule(&s.violations, "panic-on-hot-path"),
            3,
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn panic_rule_fires_on_panic_macros() {
        let s = hot("if v.is_empty() { panic!(\"no\") } else { todo!() }");
        assert_eq!(count_rule(&s.violations, "panic-on-hot-path"), 2);
    }

    #[test]
    fn panic_rule_ignores_unreachable_fns_and_near_misses() {
        // `island` is never called from a root; `unwrap_or` and
        // non-index brackets are near-misses.
        let s = analyze_files(&[
            (
                "crates/scenario/src/toy.rs",
                "pub fn toy_assertion() { helper(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                concat!(
                    "pub fn helper(v: &[u8]) -> u8 {\n",
                    "    let x = v.first().copied().unwrap_or(0);\n",
                    "    let arr = [0u8; 4];\n",
                    "    let _t: &[u8] = &arr;\n",
                    "    let w = vec![1u8];\n",
                    "    x + w.len() as u8\n",
                    "}\n",
                    "pub fn island(v: &[u8]) -> u8 { v[0] }\n",
                ),
            ),
        ]);
        assert_eq!(
            count_rule(&s.violations, "panic-on-hot-path"),
            0,
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn panic_rule_sees_through_fn_values_and_method_calls() {
        // helper is passed as a value, then the target indexes.
        let s = analyze_files(&[
            (
                "crates/scenario/src/toy.rs",
                "pub fn toy_assertion(v: &[u8]) { let _: Vec<u8> = v.iter().map(pick).collect(); }\nfn pick(x: &u8) -> u8 { TABLE[*x as usize] }\nconst TABLE: [u8; 256] = [0; 256];\n",
            ),
        ]);
        assert_eq!(
            count_rule(&s.violations, "panic-on-hot-path"),
            1,
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn justified_panic_without_ledger_entry_flags_the_file() {
        let s = hot("// PANIC: v is non-empty by construction.\n    v.first().unwrap() + 0");
        // The site itself is justified (no per-line violation), but the
        // file has no PANIC_ALLOWED pin, which is a file-level finding.
        let v: Vec<&Violation> = s
            .violations
            .iter()
            .filter(|v| v.rule == "panic-on-hot-path")
            .collect();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 0);
        assert!(v[0].message.contains("PANIC_ALLOWED"), "{}", v[0].message);
    }

    #[test]
    fn panic_ledger_drift_fires_in_both_directions() {
        let mk = |src: &str| {
            vec![
                FileModel::new(
                    "crates/scenario/src/toy.rs".to_string(),
                    "pub fn toy_assertion() { helper(); }\n".to_string(),
                ),
                FileModel::new("crates/core/src/util.rs".to_string(), src.to_string()),
            ]
        };
        // Ledger says 2, source justifies 1 → drift.
        let files = mk("pub fn helper(v: &[u8]) -> u8 {\n    // PANIC: bounded.\n    v[0]\n}\n");
        let mut out = Vec::new();
        rules::graph_pass_with(
            &files,
            &[("crates/core/src/util.rs", 2, "test pin")],
            &[],
            &mut out,
        );
        assert_eq!(count_rule(&out, "panic-on-hot-path"), 1, "{out:?}");
        assert!(out.iter().any(|v| v.message.contains("drifted")), "{out:?}");
        // Ledger names a file with zero justified sites → also drift.
        let files2 = mk("pub fn helper(_v: &[u8]) -> u8 { 0 }\n");
        let mut out2 = Vec::new();
        rules::graph_pass_with(
            &files2,
            &[("crates/core/src/util.rs", 1, "stale pin")],
            &[],
            &mut out2,
        );
        assert!(
            out2.iter()
                .any(|v| v.rule == "panic-on-hot-path" && v.message.contains("drifted")),
            "{out2:?}"
        );
    }

    // ---- float-determinism over the reachable set ----------------------

    #[test]
    fn float_rule_fires_on_partial_cmp_fold_max_and_literal_eq() {
        let s = hot(
            "let mut xs = vec![0.5f64]; xs.sort_by(|a, b| a.partial_cmp(b).expect(\"cmp\"));\n    let m = xs.iter().copied().fold(0.0f64, f64::max);\n    if m == 0.0 { return 1; }\n    0",
        );
        assert_eq!(
            count_rule(&s.violations, "float-order-on-hot-path"),
            3,
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn float_rule_ignores_blessed_and_near_miss_forms() {
        let s = hot(
            "let mut xs = vec![0.5f64]; xs.sort_by(|a, b| a.total_cmp(b));\n    let c = xs[0].max(0.0);\n    let n = v.len(); if n == 0 { return 0; }\n    c as u8\n    // PANIC: xs is non-empty: just built it.\n",
        );
        assert_eq!(
            count_rule(&s.violations, "float-order-on-hot-path"),
            0,
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn float_rule_ignores_unreachable_partial_cmp() {
        let s = analyze_files(&[
            ("crates/scenario/src/toy.rs", "pub fn toy_assertion() {}\n"),
            (
                "crates/core/src/util.rs",
                "pub fn island(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n",
            ),
        ]);
        assert_eq!(count_rule(&s.violations, "float-order-on-hot-path"), 0);
    }

    // ---- the public surface is named elsewhere -------------------------

    /// The `unreferenced-pub` findings of a mini workspace, as
    /// `file:line: message` strings.
    fn orphans(files: &[(&str, &str)]) -> Vec<String> {
        analyze_files(files)
            .violations
            .iter()
            .filter(|v| v.rule == "unreferenced-pub")
            .map(|v| format!("{}:{}: {}", v.file, v.line, v.message))
            .collect()
    }

    #[test]
    fn unreferenced_pub_fires_on_an_orphan() {
        let got = orphans(&[
            (
                "crates/toy/src/a.rs",
                concat!(
                    "pub fn lonely() {}\n",
                    "pub fn used() {}\n",
                    "pub(crate) fn crate_only() {}\n",
                    "pub struct Shape;\n",
                    "impl Shape { pub const fn area(&self) -> u8 { 0 } }\n",
                    "#[cfg(test)]\n",
                    "mod tests { pub fn helper() { super::lonely(); } }\n",
                ),
            ),
            (
                "crates/toy/src/b.rs",
                "// lonely() in a comment is no use.\nfn f() -> u8 { used(); Shape.area() }\n",
            ),
            // Binaries are read for names, never checked.
            ("crates/toy/src/bin/tool.rs", "pub fn bin_only() {}\n"),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(
            got[0].starts_with("crates/toy/src/a.rs:1: `pub fn lonely`"),
            "{got:?}"
        );
    }

    #[test]
    fn code_after_a_gated_mod_declaration_is_checked() {
        let s = analyze_files(&[
            (
                "crates/toy/src/lib.rs",
                concat!(
                    "#[cfg(test)]\n",
                    "pub(crate) mod support;\n",
                    "pub fn go() {\n",
                    "    std::thread::spawn(|| {});\n",
                    "}\n",
                ),
            ),
            ("crates/toy/src/support.rs", "pub(crate) fn helper() {}\n"),
        ]);
        let got: Vec<(usize, &str)> = s
            .violations
            .iter()
            .filter(|v| v.file == "crates/toy/src/lib.rs")
            .map(|v| (v.line, v.rule))
            .collect();
        assert_eq!(got, [(3, "unreferenced-pub"), (4, "ad-hoc-thread")]);
    }

    #[test]
    fn a_gated_mod_declaration_keeps_its_file_out_of_graph_and_surface() {
        let in_support = |decl: &str| {
            let s = analyze_files(&[
                (
                    "crates/scenario/src/toy.rs",
                    "pub fn toy_assertion() { helper(); }\n",
                ),
                ("crates/scenario/src/lib.rs", decl),
                (
                    "crates/scenario/src/support.rs",
                    "pub fn helper(v: &[u8]) -> u8 { v[0] }\npub struct Orphan;\n",
                ),
            ]);
            let rules: Vec<&str> = s
                .violations
                .iter()
                .filter(|v| v.file == "crates/scenario/src/support.rs")
                .map(|v| v.rule)
                .collect();
            rules
        };
        // Declared plainly, the file is library code: its index is
        // reachable from the root and its orphan is public surface.
        assert_eq!(
            in_support("mod toy;\nmod support;\n"),
            ["panic-on-hot-path", "unreferenced-pub"]
        );
        assert!(in_support("mod toy;\n#[cfg(test)]\nmod support;\n").is_empty());
    }

    #[test]
    fn a_pub_use_re_export_alone_still_fires() {
        let got = orphans(&[
            ("crates/toy/src/lib.rs", "mod a;\npub use a::lonely;\n"),
            ("crates/toy/src/a.rs", "pub fn lonely() {}\n"),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("`pub fn lonely`"), "{got:?}");
    }

    #[test]
    fn a_use_from_tests_or_perfbench_clears_it() {
        let item = (
            "crates/toy/src/a.rs",
            "pub fn lonely() {}\npub fn spare() {}\n",
        );
        let test = ("tests/tests/t.rs", "#[test]\nfn t() { lonely(); }\n");
        let from_tests = orphans(&[item, test]);
        assert_eq!(from_tests.len(), 1, "{from_tests:?}");
        assert!(from_tests[0].contains("`pub fn spare`"), "{from_tests:?}");
        // perfbench is read for names only: the thread spawn in it trips
        // no rule, and its use of `spare` clears that item too.
        let bench = (
            "perfbench/src/main.rs",
            "fn main() { spare(); std::thread::spawn(|| {}); }\n",
        );
        let s = analyze_files(&[item, test, bench]);
        assert!(
            !s.violations
                .iter()
                .any(|v| v.file.starts_with("perfbench/")),
            "{:?}",
            s.violations
        );
        assert_eq!(count_rule(&s.violations, "unreferenced-pub"), 0);
        assert!(!s.files.iter().any(|f| f.starts_with("perfbench/")));
    }

    #[test]
    fn stale_pub_ledger_entries_fire() {
        let files = [
            (
                "crates/toy/src/a.rs",
                "pub struct Kept;\npub fn named() {}\n",
            ),
            ("crates/toy/src/b.rs", "fn f() { named(); }\n"),
        ]
        .map(|(p, s)| FileModel::new(p.to_string(), s.to_string()));
        let reason = rules::PubReason::Signature("test pin");
        let mut out = Vec::new();
        let per_crate = rules::pub_pass_with(
            &files,
            &[],
            &[
                ("crates/toy/src/a.rs", "Kept", reason),
                ("crates/toy/src/a.rs", "named", reason),
                ("crates/toy/src/a.rs", "gone", reason),
            ],
            &mut out,
        );
        let messages: Vec<&str> = out.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(messages.len(), 2, "{messages:?}");
        assert!(messages[0].contains("`named`: another file now names it"));
        assert!(messages[1].contains("`gone`: no `pub` item"));
        assert_eq!(per_crate.get("crates/toy"), Some(&2));
    }

    // ---- root integrity ------------------------------------------------

    #[test]
    fn missing_roots_are_themselves_violations() {
        // A workspace with no matchers.rs / ThreadPool / factories
        // must say so rather than silently passing.
        let s = analyze_files(&[("crates/scenario/src/toy.rs", "pub fn toy_assertion() {}\n")]);
        assert!(
            count_rule(&s.violations, "hot-path-root-missing") >= 4,
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn every_emittable_rule_is_in_the_catalog() {
        for rule in [
            "unsafe-outside-allowlist",
            "undocumented-unsafe",
            "ad-hoc-thread",
            "hash-on-scoring-path",
            "unaudited-relaxed",
            "pairwise-iou-outside-geom",
            "panic-on-hot-path",
            "float-order-on-hot-path",
            "unreferenced-pub",
            "hot-path-root-missing",
        ] {
            assert!(explain(rule).is_some(), "missing catalog entry for {rule}");
        }
        assert_eq!(RULES.len(), 10);
    }

    // ---- the real workspace is clean and fully covered -----------------

    fn real_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
    }

    #[test]
    fn workspace_is_clean() {
        let summary = scan_workspace(real_root()).expect("scan");
        assert!(
            summary.files_scanned > 30,
            "scan must cover the workspace, saw {}",
            summary.files_scanned
        );
        assert!(
            summary.reachable_fns >= 200,
            "the hot-path reachable set collapsed to {} fns — roots or call edges broke",
            summary.reachable_fns
        );
        let rendered: Vec<String> = summary.violations.iter().map(|v| v.to_string()).collect();
        assert!(
            rendered.is_empty(),
            "workspace violations:\n{}",
            rendered.join("\n")
        );
    }

    #[test]
    fn ledger_files_exist() {
        // Drift checking in emit_ledgered only judges files the scan
        // saw, so a renamed or deleted file with a stale ledger entry
        // must be caught here instead.
        let summary = scan_workspace(real_root()).expect("scan");
        let counted = rules::PANIC_ALLOWED.iter().chain(rules::FLOAT_ALLOWED);
        let named = rules::PUB_ALLOWED.iter().map(|(path, _, _)| path);
        for path in counted.map(|(path, _, _)| path).chain(named) {
            assert!(
                summary.files.iter().any(|f| f == path),
                "ledger entry for `{path}` does not match any scanned file — \
                 re-audit the PANIC_ALLOWED/FLOAT_ALLOWED/PUB_ALLOWED ledgers"
            );
        }
    }

    #[test]
    fn scan_covers_tests_examples_benches_and_bins() {
        let summary = scan_workspace(real_root()).expect("scan");
        for needle in [
            "tests/",
            "examples/",
            "crates/bench/benches/",
            "crates/bench/src/bin/",
        ] {
            assert!(
                summary.files.iter().any(|f| f.starts_with(needle)),
                "no scanned file under {needle}"
            );
        }
        assert!(
            !summary.files.iter().any(|f| f.contains("vendor/")),
            "vendor must stay excluded"
        );
    }
}
