//! The streaming, crowded-matcher and archive-check benchmarks. Exactly
//! one mode runs per invocation:
//!
//! ```sh
//! cargo run --release -p omg-bench --bin exp_throughput -- \
//!     (--stream | --crowded) [--windows W]
//! cargo run --release -p omg-bench --bin exp_throughput -- --check-stream-archive
//! ```
//!
//! Unknown, repeated or malformed arguments (a typo'd `--stram`,
//! `--stream=yes`), no mode or two modes exit with status 2 and a usage
//! message.
//!
//! `--check-stream-archive` verifies that every scenario in the runtime
//! registry has its `BENCH_stream_<name>.json` archived **with a
//! measured rate on every row of the stream ladder**, that the
//! multi-tenant soak's
//! `BENCH_service.json` is present, and that `BENCH_crowded.json` is
//! present **and shows the indexed matchers beating the O(n²) reference
//! at 1000 boxes/frame** — the CI gate that keeps the streaming,
//! service, and asymptotic benchmarks' coverage honest. On noisy shared
//! runners the relative-timing half of that gate can be softened with
//! `OMG_CROWDED_GATE_MARGIN` (e.g. `0.8` requires indexed ≥ 0.8× the
//! reference rate); unset, the strict indexed > reference contract
//! applies.
//!
//! `--crowded` runs the asymptotic matcher benchmark: the matcher calls
//! of clutter-heavy windows at 300 and 1,000 boxes per frame (each
//! window's center-frame `multibox` triples and both adjacent frame
//! pairs' association pairs), through the indexed
//! `omg_geom::matchers` and then the O(n²) `omg_geom::reference`,
//! asserting equal outputs on every run and archiving both timing
//! curves as `BENCH_crowded.json`.
//!
//! `--stream` mode compares the batch scorers (every assertion
//! re-derives its window preparation) against the streaming scorers (one
//! preparation per window, shared by the whole set) on **every scenario
//! in the runtime registry** (`omg_bench::scenarios::all_scenarios`) —
//! no hardcoded scenario list, so a newly registered scenario is benched
//! and archived automatically — asserting bit-for-bit identical
//! severities on every run and writing one
//! `BENCH_stream_<scenario>.json` per scenario. Stream mode always runs
//! the fixed 1/2/4/8 thread ladder, so its rows are the single-stream
//! scaling curve of the persistent worker pool; every rung is timed,
//! including those above the machine's cores. The sequential monitor
//! against the `process_batch` ladder is timed by the engine bench's
//! `monitor/video_window` and `monitor/video_window_batch/N` rows.

use std::time::Instant;

use omg_bench::crowd::frame_boxes;
use omg_core::runtime::ThreadPool;
use omg_domains::multibox::MULTIBOX_IOU;
use omg_domains::prepared::TRACK_IOU;
use omg_domains::VideoWindow;
use omg_geom::{matchers, reference, BBox2D};
use omg_scenario::DynScenario;

/// Thread counts the `--stream` equivalence + throughput runs cover.
const STREAM_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The row ids of a `BENCH_stream_<name>.json`, in archive order: the
/// sequential batch reference, then one row per [`STREAM_THREADS`] rung.
fn stream_row_ids() -> impl Iterator<Item = String> {
    std::iter::once("batch x1".to_string())
        .chain(STREAM_THREADS.iter().map(|t| format!("stream x{t}")))
}

/// Writes `(id, windows/sec)` rows as `BENCH_<bench>.json` in the
/// committed archive directory, under the shared header and the window
/// count ([`omg_bench::write_archive`], which exits on a write failure).
fn write_archive(bench: &str, windows: usize, rows: &[(String, f64)]) {
    let rows: Vec<String> = rows
        .iter()
        .map(|(label, wps)| format!("{{\"id\": \"{label}\", \"windows_per_sec\": {wps:.1}}}"))
        .collect();
    omg_bench::write_archive(bench, &[("windows", windows.to_string())], &rows);
}

/// Prints one table row: the rate and its speedup over `base_wps`.
fn print_row(label: &str, wps: f64, base_wps: f64) {
    println!("  {label:<22} {wps:>12.0} {:>9.2}x", wps / base_wps);
}

/// Extracts one row's `windows_per_sec` from an archived benchmark JSON
/// by its `id` (the archives are written by this binary in a fixed
/// format, so a lexical scan is exact).
fn archived_rate(json: &str, id: &str) -> Option<f64> {
    let marker = format!("\"id\": \"{id}\", \"windows_per_sec\": ");
    let start = json.find(&marker)? + marker.len();
    let rest = &json[start..];
    let end = rest.find(['}', ','])?;
    rest[..end].trim().parse().ok()
}

/// Validates the archived `BENCH_crowded.json`: both paths' rows must
/// be present at the densest sweep point, and the indexed matchers must
/// clear `margin` × the O(n²) reference rate there — the asymptotic win
/// is a gated contract, not a claim. Local runs use the strict default
/// margin 1.0 (indexed must actually beat the reference); CI relaxes it
/// via `OMG_CROWDED_GATE_MARGIN` because a loaded shared runner can
/// flake a strict relative-timing assertion even when the true margin
/// is ~2×, while a genuine regression to O(n²) lands far below any
/// sane soft margin.
fn check_crowded_archive(dir: &std::path::Path, margin: f64) -> Result<(), String> {
    let path = dir.join("BENCH_crowded.json");
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    let densest = omg_bench::crowd::CROWD_SIZES[omg_bench::crowd::CROWD_SIZES.len() - 1];
    let indexed = archived_rate(&json, &format!("indexed x{densest}"))
        .ok_or_else(|| format!("BENCH_crowded.json has no 'indexed x{densest}' row"))?;
    let reference = archived_rate(&json, &format!("reference x{densest}"))
        .ok_or_else(|| format!("BENCH_crowded.json has no 'reference x{densest}' row"))?;
    if indexed <= reference * margin {
        return Err(format!(
            "BENCH_crowded.json shows the indexed matchers below {margin:.2}x the O(n²) \
             reference at {densest} boxes/frame ({indexed:.1} vs {reference:.1} windows/sec)"
        ));
    }
    Ok(())
}

/// The crowded-gate margin from `OMG_CROWDED_GATE_MARGIN`: 1.0 (strict)
/// when unset, exit-2 on garbage or a non-positive / >1 value (a margin
/// above 1 would demand *more* than beating the reference — certainly a
/// typo).
fn crowded_gate_margin() -> f64 {
    match std::env::var("OMG_CROWDED_GATE_MARGIN") {
        Err(_) => 1.0,
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(m) if m.is_finite() && m > 0.0 && m <= 1.0 => m,
            _ => {
                eprintln!("error: OMG_CROWDED_GATE_MARGIN must be a number in (0, 1], got {raw:?}");
                std::process::exit(2);
            }
        },
    }
}

/// Validates one scenario's archived `BENCH_stream_<name>.json`: every
/// row of [`stream_row_ids`] must carry a measured `windows_per_sec`. A
/// missing rung, or a row with anything else in place of the rate,
/// fails.
fn check_stream_rows(name: &str, json: &str) -> Result<(), String> {
    let unmeasured: Vec<String> = stream_row_ids()
        .filter(|id| archived_rate(json, id).is_none())
        .collect();
    if unmeasured.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCH_stream_{name}.json has no measured windows_per_sec for {}",
            unmeasured.join(", ")
        ))
    }
}

/// The `--check-stream-archive` mode: verifies every registered
/// scenario has its `BENCH_stream_<name>.json` archived with every rung
/// of the ladder measured (the CI gate behind "a registered scenario
/// cannot silently drop out of the streaming benchmark"), plus the
/// service soak and crowded-matcher archives.
fn check_stream_archive() {
    let dir = criterion::bench_output_dir();
    let mut problems: Vec<String> = omg_bench::scenarios::SCENARIO_NAMES
        .into_iter()
        .filter_map(|name| {
            let path = dir.join(format!("BENCH_stream_{name}.json"));
            match std::fs::read_to_string(&path) {
                Ok(json) => check_stream_rows(name, &json).err(),
                Err(e) => Some(format!("could not read {}: {e}", path.display())),
            }
        })
        .collect();
    // The multi-tenant soak archive is part of the same contract: a
    // registered service benchmark cannot silently drop out either.
    if !dir.join("BENCH_service.json").exists() {
        problems.push("BENCH_service.json is missing".to_string());
    }
    // The crowded-matcher archive is content-checked, not just
    // presence-checked: it must record the indexed matchers beating the
    // reference at the densest sweep point (softened by
    // OMG_CROWDED_GATE_MARGIN on noisy shared runners).
    if let Err(e) = check_crowded_archive(&dir, crowded_gate_margin()) {
        eprintln!(
            "error: {e}\nrun `exp_throughput --crowded` first (and investigate if \
             the indexed matchers regressed)"
        );
        std::process::exit(1);
    }
    if problems.is_empty() {
        println!(
            "bench archive complete: {} scenarios (stream ladder {STREAM_THREADS:?}) \
             + service soak + crowded matchers under {}",
            omg_bench::scenarios::SCENARIO_NAMES.len(),
            dir.display()
        );
    } else {
        eprintln!(
            "error: bench archives incomplete under {}:\n  {}\n\
             run `exp_throughput --stream` and `exp service` first",
            dir.display(),
            problems.join("\n  ")
        );
        std::process::exit(1);
    }
}

/// An association pair list, as `iou_pairs` fills it.
type Pairs = Vec<(f64, usize, usize)>;

/// Runs one crowd window's matcher calls through the indexed
/// `omg_geom::matchers` or, with `indexed` false, through their O(n²)
/// `omg_geom::reference`: the center frame's `multibox` triples at
/// `MULTIBOX_IOU`, then each adjacent frame pair's association pairs at
/// the tracker's `TRACK_IOU`.
fn window_matches(w: &VideoWindow, indexed: bool) -> (usize, Vec<Pairs>) {
    let frames: Vec<Vec<BBox2D>> = w.frames.iter().map(frame_boxes).collect();
    let classes: Vec<usize> = w.center_frame().dets.iter().map(|d| d.class).collect();
    let triples = if indexed {
        matchers::overlap_triples(&frames[w.center], &classes, MULTIBOX_IOU)
    } else {
        reference::overlap_triples(&frames[w.center], &classes, MULTIBOX_IOU)
    };
    let pairs = frames
        .windows(2)
        .map(|f| {
            let mut pairs = Vec::new();
            if indexed {
                matchers::iou_pairs(&f[0], &f[1], TRACK_IOU, &mut pairs);
            } else {
                reference::iou_pairs(&f[0], &f[1], TRACK_IOU, &mut pairs);
            }
            pairs
        })
        .collect();
    (triples, pairs)
}

/// The `--crowded` mode: the asymptotic matcher benchmark. For each
/// density on the [`omg_bench::crowd::CROWD_SIZES`] ladder, runs the
/// matcher calls of `n_windows` clutter-heavy windows (see
/// [`window_matches`]) through `omg_geom::matchers` and then
/// `omg_geom::reference`, asserts equal outputs, and archives both
/// timing curves as `BENCH_crowded.json`.
///
/// Timing is paired like the other modes: each round times the indexed
/// pass then the reference pass back-to-back, and the quietest whole
/// round per density is archived, so the comparison is made under one
/// machine-load epoch.
fn run_crowded_mode(n_windows: usize, reps: usize) {
    println!(
        "== crowded-scene matchers: indexed vs O(n²) reference, \
         {n_windows} windows per density ==\n"
    );
    let mut rows: Vec<(String, f64)> = Vec::new();
    for &size in &omg_bench::crowd::CROWD_SIZES {
        let windows = omg_bench::crowd::crowd_windows(size, n_windows, 3);
        let pass =
            |indexed| -> Vec<_> { windows.iter().map(|w| window_matches(w, indexed)).collect() };
        // Correctness first (and a warm-up pass per path): equal
        // outputs from every matcher call.
        let t0 = Instant::now();
        let indexed_out = pass(true);
        let est_pass = t0.elapsed().as_secs_f64();
        assert_eq!(
            indexed_out,
            pass(false),
            "indexed matchers diverged from the O(n²) reference at {size} boxes/frame"
        );
        let inner = inner_passes(est_pass);
        let mut best_round = [f64::INFINITY; 2];
        let mut best_total = f64::INFINITY;
        for _ in 0..reps {
            let mut times = [0.0f64; 2];
            for (time, indexed) in times.iter_mut().zip([true, false]) {
                let t0 = Instant::now();
                for _ in 0..inner {
                    std::hint::black_box(pass(indexed));
                }
                *time = t0.elapsed().as_secs_f64() / inner as f64;
            }
            let total: f64 = times.iter().sum();
            if total < best_total {
                best_total = total;
                best_round = times;
            }
        }
        let indexed_wps = n_windows as f64 / best_round[0];
        let reference_wps = n_windows as f64 / best_round[1];
        println!("{size} boxes/frame (quietest of {reps} rounds):");
        println!("  {:<22} {:>12} {:>10}", "path", "windows/sec", "speedup");
        println!(
            "  {:<22} {:>12.1} {:>9.2}x",
            format!("reference x{size}"),
            reference_wps,
            1.0
        );
        println!(
            "  {:<22} {:>12.1} {:>9.2}x",
            format!("indexed x{size}"),
            indexed_wps,
            indexed_wps / reference_wps
        );
        rows.push((format!("indexed x{size}"), indexed_wps));
        rows.push((format!("reference x{size}"), reference_wps));
    }
    println!("  (matcher outputs verified equal to the reference at every density)");
    write_archive("crowded", n_windows, &rows);
}

/// Amortization factor for sub-50ms passes: scheduler jitter is a
/// visible fraction of a few-millisecond sample, so batch enough passes
/// into each timed sample that it spans ~50ms of wall-clock.
fn inner_passes(est_pass_secs: f64) -> usize {
    ((0.05 / est_pass_secs).ceil() as usize).clamp(1, 64)
}

/// Benchmarks one registered scenario's batch scorer against its
/// streaming scorer over the full stream at each thread count of
/// [`STREAM_THREADS`]; every streaming run is asserted bit-for-bit equal
/// to the batch reference.
///
/// Every pass does the same work, so the rows measure how each config
/// spends the same machine. The sequential batch pass and every
/// streaming rung are timed **round-robin** (round 1 of every config,
/// then round 2, …) and the quietest whole round (smallest summed
/// wall-clock) is archived, so every row shares one machine-load epoch
/// instead of each config's best pass coming from a different one.
fn stream_scenario(scenario: &dyn DynScenario, reps: usize) {
    let name = scenario.name();
    let n_windows = scenario.len();
    let sequential = ThreadPool::sequential();
    let reference = scenario.score_batch(&sequential).0;
    let pools: Vec<ThreadPool> = STREAM_THREADS.iter().map(|&t| ThreadPool::new(t)).collect();
    // Correctness first (and a warm-up pass per config): identical
    // severities at every thread count on every benchmark run.
    let mut est_pass = f64::INFINITY;
    for pool in &pools {
        let t0 = Instant::now();
        assert_eq!(
            scenario.score_stream(pool).0,
            reference,
            "{name}: streaming severities diverged from batch at {} threads",
            pool.threads()
        );
        est_pass = est_pass.min(t0.elapsed().as_secs_f64());
    }
    let inner = inner_passes(est_pass);
    let time = |run: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..inner {
            run();
        }
        t0.elapsed().as_secs_f64() / inner as f64
    };
    // Round layout: batch first, then one slot per ladder rung.
    let mut best_round: Vec<f64> = Vec::new();
    let mut best_total = f64::INFINITY;
    for _ in 0..reps {
        let mut times = vec![time(&|| {
            std::hint::black_box(scenario.score_batch(&sequential).0);
        })];
        for pool in &pools {
            times.push(time(&|| {
                std::hint::black_box(scenario.score_stream(pool).0);
            }));
        }
        let total: f64 = times.iter().sum();
        if total < best_total {
            best_total = total;
            best_round = times;
        }
    }
    let rows: Vec<(String, f64)> = stream_row_ids()
        .zip(best_round.iter().map(|secs| n_windows as f64 / secs))
        .collect();
    println!("{name}: {n_windows} windows (quietest of {reps} rounds):");
    println!("  {:<22} {:>12} {:>10}", "path", "windows/sec", "speedup");
    for (label, wps) in &rows {
        print_row(label, *wps, rows[0].1);
    }
    println!("  (streaming severities verified bit-for-bit against batch)");
    write_archive(&format!("stream_{name}"), n_windows, &rows);
}

/// The `--stream` mode: batch-vs-streaming scorers on every scenario
/// in the runtime registry.
fn run_stream_mode(n_windows: usize, reps: usize) {
    let scenarios = omg_bench::scenarios::all_scenarios(3, n_windows);
    println!(
        "== streaming scorers vs batch scorers, {} registered scenarios ==\n",
        scenarios.len()
    );
    for scenario in &scenarios {
        stream_scenario(scenario.as_ref(), reps);
    }
}

const USAGE: &str = "exp_throughput (--stream | --crowded) [--windows W] | \
                     exp_throughput --check-stream-archive";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    omg_bench::validate_args_or_exit(
        &args,
        &omg_bench::CliSpec {
            value_flags: &["--windows"],
            bare_flags: &["--stream", "--crowded", "--check-stream-archive"],
            max_positionals: 0,
        },
        USAGE,
    );
    // Friendly (exit-2, one-line) value parsing: a typo'd value must not
    // panic with a backtrace.
    let windows_flag = omg_bench::parse_usize_flag_cli(&args, "--windows");
    let modes: Vec<&str> = ["--stream", "--crowded", "--check-stream-archive"]
        .into_iter()
        .filter(|mode| omg_bench::has_flag(&args, mode))
        .collect();
    let usage_error = |msg: &str| -> ! {
        eprintln!("error: {msg}\nusage: {USAGE}");
        std::process::exit(2);
    };
    match modes[..] {
        ["--check-stream-archive"] => {
            // The archive check runs no benchmark: a co-passed
            // `--windows` would be silently dropped, so reject it.
            if windows_flag.is_some() {
                usage_error("--check-stream-archive only verifies the archived BENCH_*.json files");
            }
            check_stream_archive();
        }
        // Fewer windows than the stream benchmark: each window carries
        // up to 1000 boxes/frame, and the O(n²) reference pass is the
        // slow side being measured.
        ["--crowded"] => run_crowded_mode(windows_flag.unwrap_or(12), 5),
        // The stream mode compares five configs against each other
        // (batch vs every rung), so its quietest-round search takes more
        // rounds.
        ["--stream"] => run_stream_mode(windows_flag.unwrap_or(2000), 15),
        [] => usage_error("choose a mode"),
        _ => usage_error(&format!(
            "{} are separate modes; run one",
            modes.join(" and ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete stream archive, in the format `--stream` writes.
    const FULL_LADDER: &str = r#"{
  "bench": "stream_toy",
  "available_parallelism": 2,
  "profile": "release",
  "windows": 200,
  "results": [
    {"id": "batch x1", "windows_per_sec": 1000.0},
    {"id": "stream x1", "windows_per_sec": 4000.0},
    {"id": "stream x2", "windows_per_sec": 7000.0},
    {"id": "stream x4", "windows_per_sec": 6500.0},
    {"id": "stream x8", "windows_per_sec": 6000.0}
  ]
}"#;

    #[test]
    fn stream_archive_check_requires_every_rung_measured() {
        assert_eq!(check_stream_rows("toy", FULL_LADDER), Ok(()));
        let unmeasured = |rung: &str| {
            Err(format!(
                "BENCH_stream_toy.json has no measured windows_per_sec for {rung}"
            ))
        };
        let missing_rung = FULL_LADDER.replace(
            "    {\"id\": \"stream x4\", \"windows_per_sec\": 6500.0},\n",
            "",
        );
        assert_ne!(missing_rung, FULL_LADDER);
        assert_eq!(
            check_stream_rows("toy", &missing_rung),
            unmeasured("stream x4")
        );
        let clamped = FULL_LADDER.replace("\"windows_per_sec\": 6000.0", "\"clamped_to\": 2");
        assert_ne!(clamped, FULL_LADDER);
        assert_eq!(check_stream_rows("toy", &clamped), unmeasured("stream x8"));
    }
}
