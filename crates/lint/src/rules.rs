//! The rule catalog: five token-level lexical rules carried over from
//! the first-generation linter, plus the two call-graph rules
//! (panic-freedom and float-determinism over the hot-path reachable
//! set). The allowlists and count-pinned ledgers in this file are the
//! audit records themselves — changing one is a reviewable diff.

use crate::graph;
use crate::items::{self, is_keyword, FileModel};
use crate::lexer::TokKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line, or 0 for whole-file (count-drift) findings.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Ledgers and allowlists
// ---------------------------------------------------------------------------

/// Files allowed to contain the `unsafe` keyword (and
/// `#[allow(unsafe_code)]`), with the audit rationale.
pub const UNSAFE_ALLOWED: &[(&str, &str)] = &[(
    "crates/core/src/runtime.rs",
    "the pool's lifetime-erased job cell; the handshake is model-checked by omg-verify",
)];

/// Files allowed to touch `std::thread` directly.
pub const SPAWN_ALLOWED: &[(&str, &str)] = &[
    (
        "crates/core/src/sync.rs",
        "the production half of the thread facade the pool is written against",
    ),
    (
        "crates/verify/src/sched.rs",
        "model threads are real OS threads driven one-at-a-time by the scheduler",
    ),
];

/// Directory prefixes whose (non-test) code is a scoring path: output
/// must be bit-for-bit deterministic, so hash-ordered containers are
/// banned except for the audited uses below.
pub const HASH_SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/active/src",
    "crates/service/src",
    "crates/scenario/src",
    "crates/domains/src",
];

/// Audited keyed-access-only hash uses on scoring paths: (file, number
/// of mentioning lines, rationale). A count drift fails until
/// re-audited.
pub const HASH_ALLOWED: &[(&str, usize, &str)] = &[(
    "crates/active/src/ccmab.rs",
    3,
    "per-cell bandit stats: get/entry/len only, never iterated — selection order comes from the explicit candidate list",
)];

/// The audited `Ordering::Relaxed` ledger: (file, site count,
/// rationale). Every other file must use SeqCst (or stronger
/// reasoning — and then land here).
pub const RELAXED_LEDGER: &[(&str, usize, &str)] = &[
    (
        "crates/core/src/runtime.rs",
        5,
        "job abort flag (advisory; payload travels through a mutex) and chunk-cursor claims \
         (the RMW's atomicity suffices: claimed indices are data-independent and results \
         move through mutexes) — plus the seeded torn-claim mutation's load/store pair, \
         compiled out of production call sites",
    ),
    (
        "crates/service/src/service.rs",
        9,
        "monotonic accepted/scored counters and the idle-eviction logical clock: \
         single-word freshness hints, never used to order other memory",
    ),
];

/// Directory prefix whose files may call IoU primitives directly: the
/// geometry crate owns the grid-indexed matchers, their O(n²)
/// reference, and the equivalence proofs between them.
pub const IOU_HOME: &str = "crates/geom/";

/// Audited direct-IoU call sites outside geom: (file, number of
/// mentioning lines, rationale). Every use must be bounded by something
/// other than scene density; anything O(boxes²) belongs behind
/// `omg_geom::matchers`. A count drift fails until re-audited.
pub const IOU_ALLOWED: &[(&str, usize, &str)] = &[
    (
        "crates/domains/src/weak.rs",
        2,
        "weak labeler's best-overlap lookup and duplicate vote over one frame's \
         proposals: bounded by the proposal budget, not scene density",
    ),
    (
        "crates/eval/src/detection.rs",
        1,
        "detection-to-ground-truth matching in the evaluator: the loop is the \
         mAP definition and per-image ground truth stays small",
    ),
];

/// How many lines above a site a justifying comment (`// SAFETY:`,
/// `// PANIC:`, `// FLOAT:`) may *start*; trailing same-line comments
/// count for the ledgered rules.
pub const JUSTIFY_LOOKBACK: u32 = 10;

/// Count-pinned ledger of justified panic sites reachable from the
/// hot-path roots: (file, number of `// PANIC:`-justified sites,
/// rationale). Populated below as the sites are audited; a drift in
/// either direction fails until re-audited.
pub const PANIC_ALLOWED: &[(&str, usize, &str)] = &[
    (
        "crates/active/src/pool.rs",
        3,
        "candidate-pool accessors: ids are the pool's own dense 0..len id space",
    ),
    (
        "crates/bench/src/avx.rs",
        1,
        "make_sample center is in range by the scenario-driver contract",
    ),
    (
        "crates/bench/src/newsx.rs",
        1,
        "make_sample center is in range by the scenario-driver contract",
    ),
    (
        "crates/bench/src/video.rs",
        4,
        "window centers bounds-checked at entry before neighbour indexing",
    ),
    (
        "crates/core/src/consistency/engine.rs",
        2,
        "occurrence positions index the window they were collected from; \
         a multi-valued attribute count has a maximum",
    ),
    (
        "crates/core/src/consistency/window.rs",
        2,
        "documented accessor contract: invocation index < len()",
    ),
    (
        "crates/core/src/database.rs",
        3,
        "shard vectors are resized before indexing in the same call",
    ),
    (
        "crates/core/src/registry.rs",
        1,
        "documented contract: AssertionIds are minted by this set",
    ),
    (
        "crates/core/src/runtime.rs",
        11,
        "worker-pool lock poisoning: a sibling thread already panicked, propagate",
    ),
    (
        "crates/core/src/sync.rs",
        1,
        "OS thread-spawn failure at pool startup is fatal by design",
    ),
    (
        "crates/domains/src/fusion.rs",
        3,
        "windows(2) slices and a center asserted in the constructor",
    ),
    (
        "crates/domains/src/window.rs",
        5,
        "windows(2) slices and a center asserted in the constructor",
    ),
    (
        "crates/eval/src/ap.rs",
        3,
        "envelope scan bounded by saturating_sub'd range",
    ),
    (
        "crates/scenario/src/drivers.rs",
        3,
        "clamped_window keeps lo <= i < hi <= n for every index i < n its callers pass",
    ),
    (
        "crates/scenario/src/errors.rs",
        1,
        "assertion ids index their own set",
    ),
    (
        "crates/scenario/src/tests_support.rs",
        4,
        "toy scenarios uphold the driver's center-in-window contract",
    ),
    (
        "crates/service/src/service.rs",
        4,
        "shard lock poisoning means a scorer already panicked; propagate",
    ),
    (
        "crates/service/src/syncmap.rs",
        6,
        "RwLock poisoning propagation; removals re-checked under the same lock",
    ),
    (
        "crates/sim/src/av.rs",
        5,
        "constant/positively-sampled geometry the constructors accept",
    ),
    (
        "crates/sim/src/ecg.rs",
        1,
        "markov state stays inside the class-means table",
    ),
    (
        "crates/sim/src/news.rs",
        1,
        "host indices sampled from the roster's own range",
    ),
    (
        "crates/sim/src/signal.rs",
        18,
        "fixed APP_DIM feature layout with constant slots",
    ),
    (
        "crates/sim/src/traffic.rs",
        1,
        "positively-sampled clutter box the constructor accepts",
    ),
];

/// Count-pinned ledger of justified float-ordering sites reachable
/// from the hot-path roots (`// FLOAT:`-justified).
pub const FLOAT_ALLOWED: &[(&str, usize, &str)] = &[];

/// Why a `pub` item that no other file names stays public. These are
/// the only three reasons the surface rule accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PubReason {
    /// A public signature names it (a `pub fn`'s parameter or return
    /// type, a `pub` field, a trait's associated type), so dropping
    /// `pub` would leak a private type; the text names the signature.
    Signature(&'static str),
    /// The paper's assertion API names it; the text cites the section.
    Paper(&'static str),
    /// A ROADMAP item names it; the text cites the item.
    Roadmap(&'static str),
}

/// Deliberately public items that no other scanned file names: (file,
/// item name, reason). An entry goes stale, and fails the rule, once
/// the item is gone or something else names it, so the ledger can only
/// shrink.
pub const PUB_ALLOWED: &[(&str, &str, PubReason)] = &[
    (
        "crates/active/src/pool.rs",
        "PoolShapeError",
        PubReason::Signature("the error of CandidatePool::new"),
    ),
    (
        "crates/active/src/runner.rs",
        "RoundRecord",
        PubReason::Signature("run_rounds returns it"),
    ),
    (
        "crates/bench/src/ecgx.rs",
        "EcgItem",
        PubReason::Signature("EcgScenario's Scenario::Item"),
    ),
    (
        "crates/bench/src/highway.rs",
        "HighwayItem",
        PubReason::Signature("HighwayScenario's Scenario::Item"),
    ),
    (
        "crates/bench/src/loc.rs",
        "LocEntry",
        PubReason::Signature("table2_entries returns it"),
    ),
    (
        "crates/bench/src/newsx.rs",
        "FlaggedGroup",
        PubReason::Signature("flagged_groups returns it"),
    ),
    (
        "crates/bench/src/video.rs",
        "VideoItem",
        PubReason::Signature("VideoScenario's Scenario::Item"),
    ),
    (
        "crates/core/src/database.rs",
        "Record",
        PubReason::Signature("AssertionDb::iter yields it"),
    ),
    (
        "crates/core/src/taxonomy.rs",
        "AssertionClass",
        PubReason::Signature("a field of TaxonomyEntry"),
    ),
    (
        "crates/core/src/taxonomy.rs",
        "AssertionSubclass",
        PubReason::Signature("a field of TaxonomyEntry"),
    ),
    (
        "crates/core/src/taxonomy.rs",
        "TaxonomyEntry",
        PubReason::Signature("taxonomy returns it"),
    ),
    (
        "crates/domains/src/label_check.rs",
        "LabelCheckReport",
        PubReason::Signature("check_labels returns it"),
    ),
    (
        "crates/eval/src/detection.rs",
        "FrameMatch",
        PubReason::Signature("match_frame returns it"),
    ),
    (
        "crates/scenario/src/tests_support.rs",
        "CountedItem",
        PubReason::Signature("the clone-counting toy scenario's Scenario::Item"),
    ),
    (
        "crates/service/src/service.rs",
        "SessionReport",
        PubReason::Signature("MonitorService::finish returns it"),
    ),
    (
        "crates/service/src/service.rs",
        "session_fire_counts",
        PubReason::Roadmap("item 3's telemetry snapshot reads the per-session fire counts"),
    ),
    (
        "crates/sim/src/av.rs",
        "LidarDetection",
        PubReason::Signature("the AvSample::lidar field"),
    ),
    (
        "crates/verify/src/sched.rs",
        "Report",
        PubReason::Signature("model and model_with return it"),
    ),
    (
        "crates/verify/src/sync.rs",
        "NeverPoisoned",
        PubReason::Signature("the error type of the model Mutex::lock"),
    ),
];

fn lookup<'a>(table: &'a [(&str, &str)], file: &str) -> Option<&'a str> {
    table.iter().find(|(f, _)| *f == file).map(|(_, why)| *why)
}

fn lookup_counted(table: &[(&str, usize, &str)], file: &str) -> Option<usize> {
    table
        .iter()
        .find(|(f, _, _)| *f == file)
        .map(|(_, n, _)| *n)
}

// ---------------------------------------------------------------------------
// Lexical rules (per file, token stream before the test cutoff)
// ---------------------------------------------------------------------------

/// True when code tokens `i..` spell out `pat` exactly.
fn seq(fm: &FileModel, i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(j, p)| fm.t(i + j) == *p)
}

/// Runs the five lexical rules over one file.
pub fn lexical(fm: &FileModel, out: &mut Vec<Violation>) {
    let file = fm.path.as_str();
    let in_hash_scope = HASH_SCOPE.iter().any(|p| file.starts_with(p));
    let in_iou_scope = !file.starts_with(IOU_HOME);
    let unsafe_ok = lookup(UNSAFE_ALLOWED, file).is_some();
    let mut hash_lines: BTreeSet<u32> = BTreeSet::new();
    let mut relaxed_lines: BTreeSet<u32> = BTreeSet::new();
    let mut iou_lines: BTreeSet<u32> = BTreeSet::new();

    for i in 0..fm.cut {
        let line = fm.toks[i].line;
        match (fm.kind(i), fm.t(i)) {
            // Rule 1: the unsafe allowlist.
            (TokKind::Ident, "unsafe") => {
                if unsafe_ok {
                    let next = fm.t(i + 1);
                    if (next == "{" || next == "impl")
                        && !fm.comment_in(
                            line.saturating_sub(JUSTIFY_LOOKBACK),
                            line.saturating_sub(1),
                            "SAFETY:",
                        )
                    {
                        out.push(Violation {
                            file: file.to_string(),
                            line: line as usize,
                            rule: "undocumented-unsafe",
                            message: format!(
                                "`unsafe` block/impl without a `// SAFETY:` comment within \
                                 the {JUSTIFY_LOOKBACK} lines above"
                            ),
                        });
                    }
                } else {
                    out.push(Violation {
                        file: file.to_string(),
                        line: line as usize,
                        rule: "unsafe-outside-allowlist",
                        message: "`unsafe` is confined to the pool's job cell \
                                  (crates/core/src/runtime.rs); write safe code or extend the \
                                  audited allowlist in omg-lint"
                            .to_string(),
                    });
                }
            }
            (TokKind::Ident, "allow")
                if !unsafe_ok && seq(fm, i, &["allow", "(", "unsafe_code", ")"]) =>
            {
                out.push(Violation {
                    file: file.to_string(),
                    line: line as usize,
                    rule: "unsafe-outside-allowlist",
                    message: "`#[allow(unsafe_code)]` outside the audited allowlist".to_string(),
                });
            }
            // Rule 2: no ad-hoc thread creation.
            (TokKind::Ident, "std")
                if lookup(SPAWN_ALLOWED, file).is_none()
                    && (seq(fm, i, &["std", "::", "thread", "::", "spawn"])
                        || seq(fm, i, &["std", "::", "thread", "::", "scope"])
                        || seq(fm, i, &["std", "::", "thread", "::", "Builder"])) =>
            {
                out.push(ad_hoc_thread(file, line));
            }
            (TokKind::Ident, "use")
                if lookup(SPAWN_ALLOWED, file).is_none()
                    && seq(fm, i, &["use", "std", "::", "thread"]) =>
            {
                out.push(ad_hoc_thread(file, line));
            }
            // Rule 3: hash containers on scoring paths (line-counted).
            (TokKind::Ident, "HashMap") | (TokKind::Ident, "HashSet")
                if in_hash_scope
                    && hash_lines.insert(line)
                    && lookup_counted(HASH_ALLOWED, file).is_none() =>
            {
                out.push(Violation {
                    file: file.to_string(),
                    line: line as usize,
                    rule: "hash-on-scoring-path",
                    message: "HashMap/HashSet on a scoring path: iteration order is \
                              randomized, which breaks bit-for-bit determinism — use \
                              Vec/BTreeMap, or audit a keyed-access-only use in omg-lint"
                        .to_string(),
                });
            }
            // Rule 4: the Relaxed ledger (line-counted below).
            (TokKind::Ident, "Ordering") if seq(fm, i, &["Ordering", "::", "Relaxed"]) => {
                relaxed_lines.insert(line);
            }
            // Rule 5: pairwise IoU confined to geom (line-counted).
            (TokKind::Punct, ".")
                if in_iou_scope
                    && (seq(fm, i, &[".", "iou", "("])
                        || seq(fm, i, &[".", "iou_bev_aabb", "("]))
                    && iou_lines.insert(line)
                    && lookup_counted(IOU_ALLOWED, file).is_none() =>
            {
                out.push(Violation {
                    file: file.to_string(),
                    line: line as usize,
                    rule: "pairwise-iou-outside-geom",
                    message: "direct IoU call outside omg-geom: route matching through \
                              omg_geom::matchers (grid-indexed, reference-equivalent), or \
                              audit a bounded small-n use in omg-lint's IOU_ALLOWED"
                        .to_string(),
                });
            }
            _ => {}
        }
    }

    if let Some(expected) = lookup_counted(HASH_ALLOWED, file) {
        if hash_lines.len() != expected {
            out.push(Violation {
                file: file.to_string(),
                line: 0,
                rule: "hash-on-scoring-path",
                message: format!(
                    "audited hash-container line count drifted: ledger says {expected}, \
                     found {} — re-audit (keyed access only, no iteration) and \
                     update omg-lint's HASH_ALLOWED",
                    hash_lines.len()
                ),
            });
        }
    }
    if let Some(expected) = lookup_counted(IOU_ALLOWED, file) {
        if iou_lines.len() != expected {
            out.push(Violation {
                file: file.to_string(),
                line: 0,
                rule: "pairwise-iou-outside-geom",
                message: format!(
                    "audited direct-IoU line count drifted: ledger says {expected}, found \
                     {} — re-audit (bounded small-n only, never O(boxes²)) and \
                     update omg-lint's IOU_ALLOWED",
                    iou_lines.len()
                ),
            });
        }
    }
    match lookup_counted(RELAXED_LEDGER, file) {
        Some(expected) if relaxed_lines.len() != expected => out.push(Violation {
            file: file.to_string(),
            line: 0,
            rule: "unaudited-relaxed",
            message: format!(
                "Ordering::Relaxed site count drifted: ledger says {expected}, found \
                 {} — re-audit the orderings and update omg-lint's RELAXED_LEDGER",
                relaxed_lines.len()
            ),
        }),
        None if !relaxed_lines.is_empty() => out.push(Violation {
            file: file.to_string(),
            line: 0,
            rule: "unaudited-relaxed",
            message: format!(
                "{} Ordering::Relaxed site(s) in a file absent from \
                 omg-lint's RELAXED_LEDGER — justify them there or use SeqCst",
                relaxed_lines.len()
            ),
        }),
        _ => {}
    }
}

fn ad_hoc_thread(file: &str, line: u32) -> Violation {
    Violation {
        file: file.to_string(),
        line: line as usize,
        rule: "ad-hoc-thread",
        message: "direct std::thread use outside the facade; go through \
                  omg_core::runtime::ThreadPool (or omg_core::sync::thread) so the \
                  concurrency stays model-checked"
            .to_string(),
    }
}

// ---------------------------------------------------------------------------
// Call-graph rules: panic-freedom and float-determinism
// ---------------------------------------------------------------------------

/// Which files enter the call graph: workspace crate sources, minus
/// the linter itself (its fixtures and pattern tables are not engine
/// code), the model-check harness (compiled only under `cfg(omg_model)`
/// and full of intentional torn-state probes), and test sources.
pub fn graph_eligible(fm: &FileModel) -> bool {
    fm.path.starts_with("crates/")
        && fm.path.contains("/src/")
        && !fm.path.starts_with("crates/lint/")
        && !fm.path.starts_with("crates/verify/")
        && !fm.is_test
}

/// Macro names that abort when expanded. `assert!`/`debug_assert!` are
/// deliberately absent: the workspace uses them only as constructor
/// contract checks, which fail at configuration time, not per-sample
/// in the scoring loop — the panic rule is about the latter.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs the reachability pass; appends violations and returns the
/// number of reachable functions (surfaced in the summary so a
/// collapsed graph is visible). `panic_ledger`/`float_ledger` are
/// parameters so drift tests can pin their own tables; production
/// callers pass [`PANIC_ALLOWED`]/[`FLOAT_ALLOWED`].
pub fn graph_pass_with(
    files: &[FileModel],
    panic_ledger: &[(&str, usize, &str)],
    float_ledger: &[(&str, usize, &str)],
    out: &mut Vec<Violation>,
) -> usize {
    let eligible: Vec<bool> = files.iter().map(graph_eligible).collect();
    let g = graph::build(files, &eligible);
    let (roots, missing) = graph::resolve_roots(&g, files);
    for m in missing {
        out.push(Violation {
            file: "crates/lint/src/graph.rs".to_string(),
            line: 0,
            rule: "hot-path-root-missing",
            message: format!(
                "hot-path root `{m}` resolved to no functions — the reachability pass \
                 would silently go vacuous over it; fix the root spec in omg-lint's ROOTS \
                 or restore the renamed entry point"
            ),
        });
    }
    let seen = graph::reachable(&g, &roots);
    let reachable_count = seen.iter().filter(|&&s| s).count();

    // Collect sites per (file, token) so nested fns sharing body tokens
    // with their parent never double-report.
    let mut panic_sites: BTreeMap<usize, BTreeMap<usize, (String, String)>> = BTreeMap::new();
    let mut float_sites: BTreeMap<usize, BTreeMap<usize, (String, String)>> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !seen[i] {
            continue;
        }
        let (b0, b1) = match f.body {
            Some(r) => r,
            None => continue,
        };
        let fm = &files[f.file];
        for k in b0..=b1 {
            if let Some(desc) = panic_site(fm, k) {
                panic_sites
                    .entry(f.file)
                    .or_default()
                    .entry(k)
                    .or_insert_with(|| (desc, f.name.clone()));
            }
            if let Some(desc) = float_site(fm, k) {
                float_sites
                    .entry(f.file)
                    .or_default()
                    .entry(k)
                    .or_insert_with(|| (desc, f.name.clone()));
            }
        }
    }

    emit_ledgered(
        files,
        &panic_sites,
        "PANIC:",
        panic_ledger,
        "panic-on-hot-path",
        "PANIC_ALLOWED",
        "the scoring monitor must not be able to panic: return a Result/Option or \
         restructure the indexing",
        out,
    );
    emit_ledgered(
        files,
        &float_sites,
        "FLOAT:",
        float_ledger,
        "float-order-on-hot-path",
        "FLOAT_ALLOWED",
        "float ordering on the hot path must be NaN-total and thread-count-independent: \
         use total_cmp or omg_core::float::{fmax,fmin}",
        out,
    );
    reachable_count
}

/// Production entry: the pinned ledgers.
pub fn graph_pass(files: &[FileModel], out: &mut Vec<Violation>) -> usize {
    graph_pass_with(files, PANIC_ALLOWED, FLOAT_ALLOWED, out)
}

/// A panic-capable site at code token `k`, described, or `None`.
fn panic_site(fm: &FileModel, k: usize) -> Option<String> {
    match (fm.kind(k), fm.t(k)) {
        (TokKind::Ident, m @ ("unwrap" | "expect"))
            if k > 0 && fm.t(k - 1) == "." && fm.t(k + 1) == "(" =>
        {
            Some(format!("`.{m}()`"))
        }
        (TokKind::Ident, m) if PANIC_MACROS.contains(&m) && fm.t(k + 1) == "!" => {
            Some(format!("`{m}!`"))
        }
        (TokKind::Punct, "[") if is_index_context(fm, k) => {
            Some("slice/array index (can panic out of bounds)".to_string())
        }
        _ => None,
    }
}

/// True when the `[` at token `k` indexes an expression (as opposed to
/// opening an attribute, a macro's brackets, a slice pattern, an array
/// literal, or a type).
fn is_index_context(fm: &FileModel, k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let prev = fm.t(k - 1);
    match fm.kind(k - 1) {
        TokKind::Ident => !is_keyword(prev),
        TokKind::Int | TokKind::Float | TokKind::Str | TokKind::RawStr | TokKind::ByteStr => true,
        _ => prev == ")" || prev == "]",
    }
}

/// A float-ordering site at code token `k`, described, or `None`.
fn float_site(fm: &FileModel, k: usize) -> Option<String> {
    match (fm.kind(k), fm.t(k)) {
        (TokKind::Ident, "partial_cmp") => Some(
            "`partial_cmp` (NaN-partial ordering; ties and NaNs resolve arbitrarily)".to_string(),
        ),
        (TokKind::Ident, m @ ("max" | "min"))
            if k >= 2 && fm.t(k - 1) == "::" && matches!(fm.t(k - 2), "f64" | "f32") =>
        {
            Some(format!(
                "`{}::{m}` reduction (drops NaN, order-sensitive in folds)",
                fm.t(k - 2)
            ))
        }
        (TokKind::Punct, op @ ("==" | "!=")) => {
            let float_adjacent =
                (k > 0 && fm.kind(k - 1) == TokKind::Float) || fm.kind(k + 1) == TokKind::Float;
            if float_adjacent {
                Some(format!("float literal `{op}` comparison"))
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Surface rule: every library `pub` item is named by another file
// ---------------------------------------------------------------------------

/// Whether the surface rule checks `fm`'s `pub` items: library crate
/// sources, minus the linter itself and binaries.
fn pub_scope(fm: &FileModel) -> bool {
    fm.path.starts_with("crates/")
        && fm.path.contains("/src/")
        && !fm.path.starts_with("crates/lint/")
        && !fm.path.contains("/src/bin/")
        && !fm.is_test
}

/// The crate directory (`crates/core`) a library source sits in.
fn crate_of(path: &str) -> &str {
    let end = path
        .match_indices('/')
        .nth(1)
        .map_or(path.len(), |(i, _)| i);
    &path[..end]
}

/// Runs the `unreferenced-pub` rule: a `pub` item of a library source
/// file passes when its name is an identifier in the code of another
/// file of `files` or of `name_only` (read for names, never checked),
/// and otherwise needs a `ledger` entry. Returns the public-item count
/// per crate. Production callers pass [`PUB_ALLOWED`].
pub fn pub_pass_with(
    files: &[FileModel],
    name_only: &[FileModel],
    ledger: &[(&str, &str, PubReason)],
    out: &mut Vec<Violation>,
) -> BTreeMap<String, usize> {
    let names: Vec<BTreeSet<String>> = files.iter().map(items::named_idents).collect();
    let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
    for set in &names {
        for nm in set {
            *files_naming.entry(nm.as_str()).or_default() += 1;
        }
    }
    let outside: BTreeSet<String> = name_only.iter().flat_map(items::named_idents).collect();
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    let mut defined: BTreeSet<(&str, String)> = BTreeSet::new();
    for (fi, fm) in files.iter().enumerate() {
        if !pub_scope(fm) {
            continue;
        }
        let found = items::extract_pub_items(fm);
        *per_crate.entry(crate_of(&fm.path).to_string()).or_default() += found.len();
        for item in found {
            let own = usize::from(names[fi].contains(&item.name));
            let named_elsewhere = files_naming.get(item.name.as_str()).copied().unwrap_or(0) > own
                || outside.contains(&item.name);
            let ledgered = ledger
                .iter()
                .any(|(f, n, _)| *f == fm.path && *n == item.name);
            if !named_elsewhere && !ledgered {
                out.push(Violation {
                    file: fm.path.clone(),
                    line: item.line as usize,
                    rule: "unreferenced-pub",
                    message: format!(
                        "`pub {} {}` is named by no other file: delete it, drop `pub`, or \
                         give it a reason in omg-lint's PUB_ALLOWED",
                        item.kind, item.name
                    ),
                });
            } else if named_elsewhere && ledgered {
                out.push(stale_pub(&fm.path, &item.name, "another file now names it"));
            }
            defined.insert((fm.path.as_str(), item.name));
        }
    }
    // Judged against the files this scan saw, as the count ledgers are;
    // the lint crate's ledger_files_exist self-test catches the rest.
    for (path, name, _) in ledger {
        let seen = files.iter().any(|fm| fm.path == *path);
        if seen && !defined.contains(&(*path, name.to_string())) {
            out.push(stale_pub(path, name, "no `pub` item of that name is left"));
        }
    }
    per_crate
}

/// Production entry: the pinned [`PUB_ALLOWED`] ledger.
pub fn pub_pass(
    files: &[FileModel],
    name_only: &[FileModel],
    out: &mut Vec<Violation>,
) -> BTreeMap<String, usize> {
    pub_pass_with(files, name_only, PUB_ALLOWED, out)
}

fn stale_pub(file: &str, name: &str, why: &str) -> Violation {
    Violation {
        file: file.to_string(),
        line: 0,
        rule: "unreferenced-pub",
        message: format!("stale PUB_ALLOWED entry for `{name}`: {why}; remove the entry"),
    }
}

/// Emits per-site violations for unjustified sites and reconciles the
/// justified counts against the count-pinned ledger, both directions.
#[allow(clippy::too_many_arguments)]
fn emit_ledgered(
    files: &[FileModel],
    sites: &BTreeMap<usize, BTreeMap<usize, (String, String)>>,
    marker: &str,
    ledger: &[(&str, usize, &str)],
    rule: &'static str,
    ledger_name: &str,
    remedy: &str,
    out: &mut Vec<Violation>,
) {
    let mut justified_by_file: BTreeMap<&str, usize> = BTreeMap::new();
    for (&fi, file_sites) in sites {
        let fm = &files[fi];
        let mut justified = 0usize;
        for (&k, (desc, fn_name)) in file_sites {
            let line = fm.toks[k].line;
            if fm.justified(line, marker, JUSTIFY_LOOKBACK) {
                justified += 1;
            } else {
                out.push(Violation {
                    file: fm.path.clone(),
                    line: line as usize,
                    rule,
                    message: format!(
                        "{desc} in fn `{fn_name}`, reachable from the hot-path roots: \
                         {remedy} — or justify with a `// {marker}` comment and a \
                         {ledger_name} entry"
                    ),
                });
            }
        }
        justified_by_file.insert(fm.path.as_str(), justified);
    }
    // Drift is judged against the files this scan actually saw: a
    // fixture scan must not trip over ledger entries for real files.
    // Entries naming files outside the real workspace are caught by the
    // lint crate's ledger_files_exist self-test instead.
    for (path, expected, _why) in ledger {
        if !files.iter().any(|fm| fm.path == *path) {
            continue;
        }
        let found = justified_by_file.get(path).copied().unwrap_or(0);
        if found != *expected {
            out.push(Violation {
                file: path.to_string(),
                line: 0,
                rule,
                message: format!(
                    "justified-site count drifted: {ledger_name} says {expected}, found \
                     {found} `// {marker}`-justified reachable site(s) — re-audit and \
                     update the ledger in omg-lint"
                ),
            });
        }
    }
    for (path, justified) in justified_by_file {
        if justified > 0 && lookup_counted(ledger, path).is_none() {
            out.push(Violation {
                file: path.to_string(),
                line: 0,
                rule,
                message: format!(
                    "{justified} `// {marker}`-justified site(s) in a file absent from \
                     omg-lint's {ledger_name} — pin the count there so drift is caught"
                ),
            });
        }
    }
}
