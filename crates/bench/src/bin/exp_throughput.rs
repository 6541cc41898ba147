//! Sequential-vs-parallel monitor throughput (windows/sec) on the
//! night-street video stream — the scaling measurement behind the
//! parallel batch runtime (`Monitor::process_batch`) — plus, with
//! `--stream`, the batch-vs-streaming comparison behind the shared
//! window-preparation layer.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p omg-bench --bin exp_throughput -- \
//!     [--threads N] [--windows W] \
//!     [--stream | --sweep-threads 1,2,4,8 | --crowded | --check-stream-archive]
//! ```
//!
//! Unknown or malformed arguments (a typo'd `--thread`, `--stream=yes`)
//! are rejected with a usage message. `--check-stream-archive` verifies
//! that every scenario in the runtime registry has its
//! `BENCH_stream_<name>.json` **and** `BENCH_scaling_<name>.json`
//! archived, that the multi-tenant soak's `BENCH_service.json` is
//! present, and that `BENCH_crowded.json` is present **and shows the
//! indexed matchers beating the O(n²) reference at 1000 boxes/frame** —
//! the CI gate that keeps the streaming, scaling, service, and
//! asymptotic benchmarks' coverage honest. On noisy shared runners the
//! relative-timing half of that gate can be softened with
//! `OMG_CROWDED_GATE_MARGIN` (e.g. `0.8` requires indexed ≥ 0.8× the
//! reference rate); unset, the strict indexed > reference contract
//! applies.
//!
//! `--crowded` runs the asymptotic matcher benchmark: the matcher calls
//! of clutter-heavy windows at 300 and 1,000 boxes per frame (each
//! window's center-frame `multibox` triples and both adjacent frame
//! pairs' association pairs), through the grid-indexed
//! `omg_geom::matchers` and then the O(n²) `omg_geom::reference`,
//! asserting equal outputs on every run and archiving both timing
//! curves as `BENCH_crowded.json`.
//!
//! Default mode runs the sequential `Monitor::process` loop, then
//! `process_batch` at 1, 2, 4, … up to a ceiling of `--threads` workers
//! (else the `OMG_THREADS` environment variable, else available
//! parallelism), verifying on every run that the parallel path's reports
//! and database match the sequential path bit-for-bit. Results print as
//! a table and land in `BENCH_throughput.json` under the same
//! committed top-level `benchmarks/` directory the criterion harnesses write to.
//!
//! `--stream` mode instead compares the batch scorers (every assertion
//! re-derives its window preparation) against the streaming scorers (one
//! preparation per window, shared by the whole set) on **every scenario
//! in the runtime registry** (`omg_bench::scenarios::all_scenarios`) —
//! no hardcoded scenario list, so a newly registered scenario is benched
//! and archived automatically — asserting bit-for-bit identical
//! severities on every run and writing one
//! `BENCH_stream_<scenario>.json` per scenario. Stream mode always runs
//! the fixed 1/2/8 thread ladder (the engine's equivalence contract is
//! specified at those counts); `--threads` applies to the default mode
//! only and is rejected alongside `--stream` to avoid silently ignoring
//! it.
//!
//! `--sweep-threads 1,2,4,8` runs the **single-stream scaling curve**:
//! for every registered scenario, the streaming scorer over one stream
//! at each listed thread count, asserting bit-for-bit identical
//! severities on every run and writing one `BENCH_scaling_<scenario>.json`
//! per scenario — the persistent worker pool's headline artifact
//! (threads are supposed to *help* a single stream, not just not hurt
//! it).
//!
//! In both ladders, an entry whose pool clamps to the same fanout as an
//! earlier entry's (`x8` on a 2-core host) runs that entry's schedule;
//! it is not measured again and its archive row reads
//! `{"id": "stream x8", "clamped_to": 2}` instead of a rate.

use std::time::Instant;

use omg_bench::crowd::frame_boxes;
use omg_bench::video::{monitor_windows, FLICKER_T};
use omg_core::runtime::ThreadPool;
use omg_core::Monitor;
use omg_domains::multibox::MULTIBOX_IOU;
use omg_domains::prepared::TRACK_IOU;
use omg_domains::{video_assertion_set, VideoWindow};
use omg_geom::{matchers, reference, BBox2D};
use omg_scenario::DynScenario;

/// Thread counts the `--stream` equivalence + throughput runs cover.
const STREAM_THREADS: [usize; 3] = [1, 2, 8];

/// Best-of-`reps` wall-clock for one full pass over the stream.
fn best_secs<F: FnMut()>(reps: usize, mut run: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One archived row's value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rate {
    /// Measured windows per second.
    Measured(f64),
    /// A ladder entry whose pool clamped to the same fanout as an
    /// earlier entry's, so it shares that entry's schedule and was not
    /// measured on its own.
    ClampedTo(usize),
}

impl Rate {
    /// The row's JSON fields after its `id`.
    fn json(self) -> String {
        match self {
            Rate::Measured(wps) => format!("\"windows_per_sec\": {wps:.1}"),
            Rate::ClampedTo(fanout) => format!("\"clamped_to\": {fanout}"),
        }
    }
}

/// Writes `rows` as `BENCH_<bench>.json` in the committed archive
/// directory, under the shared header and the window count
/// ([`omg_bench::write_archive`], which exits on a write failure).
fn write_archive(bench: &str, windows: usize, rows: &[(String, Rate)]) {
    let rows: Vec<String> = rows
        .iter()
        .map(|(label, rate)| format!("{{\"id\": \"{label}\", {}}}", rate.json()))
        .collect();
    omg_bench::write_archive(bench, &[("windows", windows.to_string())], &rows);
}

/// The ladder's archived rates: a measured rate for each entry that
/// owns its distinct-fanout slot, and `ClampedTo` for each entry that
/// [`dedupe_by_fanout`] merged into an earlier one.
fn ladder_rates(
    pools: &[ThreadPool],
    distinct: &[usize],
    measure_of: &[usize],
    slot_wps: impl Fn(usize) -> f64,
) -> Vec<Rate> {
    measure_of
        .iter()
        .zip(pools)
        .enumerate()
        .map(|(i, (&slot, pool))| {
            if distinct[slot] == i {
                Rate::Measured(slot_wps(slot))
            } else {
                Rate::ClampedTo(pool.fanout())
            }
        })
        .collect()
}

/// Prints one table row: the rate and its speedup over `base_wps`, or
/// the fanout a clamped entry shares.
fn print_row(label: &str, rate: Rate, base_wps: f64) {
    match rate {
        Rate::Measured(wps) => {
            println!("  {label:<22} {wps:>12.0} {:>9.2}x", wps / base_wps);
        }
        Rate::ClampedTo(fanout) => {
            println!(
                "  {label:<22} {:>12} {:>10}",
                format!("= x{fanout}"),
                "clamped"
            );
        }
    }
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

/// The `--check-stream-archive` mode: verifies every registered
/// scenario has its `BENCH_stream_<name>.json` **and** its
/// `BENCH_scaling_<name>.json` archived (the CI gate behind "a
/// registered scenario cannot silently drop out of the streaming or
/// scaling benchmarks"), plus the service soak and crowded-matcher
/// archives.
fn check_stream_archive() {
    let dir = criterion::bench_output_dir();
    let mut missing: Vec<String> = omg_bench::scenarios::SCENARIO_NAMES
        .into_iter()
        .flat_map(|name| {
            [
                format!("BENCH_stream_{name}.json"),
                format!("BENCH_scaling_{name}.json"),
            ]
        })
        .filter(|file| !dir.join(file).exists())
        .collect();
    // The multi-tenant soak archive is part of the same contract: a
    // registered service benchmark cannot silently drop out either.
    if !dir.join("BENCH_service.json").exists() {
        missing.push("BENCH_service.json".to_string());
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
    if missing.is_empty() {
        println!(
            "bench archive complete: {} scenarios (stream + scaling) + service soak \
             + crowded matchers under {}",
            omg_bench::scenarios::SCENARIO_NAMES.len(),
            dir.display()
        );
    } else {
        eprintln!(
            "error: bench archives missing under {}: {}\n\
             run `exp_throughput --stream`, `exp_throughput --sweep-threads 1,2,4,8`, \
             and `exp service` first",
            dir.display(),
            missing.join(", ")
        );
        std::process::exit(1);
    }
}

/// An association pair list, as `iou_pairs` fills it.
type Pairs = Vec<(f64, usize, usize)>;

/// Runs one crowd window's matcher calls through the grid-indexed
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
        "== crowded-scene matchers: grid-indexed vs O(n²) reference, \
         {n_windows} windows per density ==\n"
    );
    let mut rows: Vec<(String, Rate)> = Vec::new();
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
        rows.push((format!("indexed x{size}"), Rate::Measured(indexed_wps)));
        rows.push((format!("reference x{size}"), Rate::Measured(reference_wps)));
    }
    println!("  (matcher outputs verified equal to the reference at every density)");
    write_archive("crowded", n_windows, &rows);
}

/// Deduplicates a pool ladder by **effective fanout**. `ThreadPool::new`
/// clamps its fanout to the machine's cores, so ladder entries above
/// that run instruction-for-instruction identical schedules; measuring
/// them separately would report scheduler noise as a scaling
/// difference. Returns `(distinct, measure_of)`: indices of the pools
/// to actually time, and for each ladder entry its fanout's slot in
/// `distinct`. An entry that is not its slot's first is archived as
/// `clamped_to` that fanout, with no rate of its own.
fn dedupe_by_fanout(pools: &[ThreadPool]) -> (Vec<usize>, Vec<usize>) {
    let mut distinct: Vec<usize> = Vec::new();
    let measure_of = pools
        .iter()
        .enumerate()
        .map(|(i, pool)| {
            match distinct
                .iter()
                .position(|&j| pools[j].fanout() == pool.fanout())
            {
                Some(slot) => slot,
                None => {
                    distinct.push(i);
                    distinct.len() - 1
                }
            }
        })
        .collect();
    (distinct, measure_of)
}

/// Amortization factor for sub-50ms passes: scheduler jitter is a
/// visible fraction of a few-millisecond sample, so batch enough passes
/// into each timed sample that it spans ~50ms of wall-clock.
fn inner_passes(est_pass_secs: f64) -> usize {
    ((0.05 / est_pass_secs).ceil() as usize).clamp(1, 64)
}

/// Benchmarks one registered scenario's batch scorer against its
/// streaming scorer over the full stream at each thread count; every
/// streaming run is asserted bit-for-bit equal to the batch reference.
///
/// Timing is paired the same way as [`sweep_scenario`]: the sequential
/// batch pass and each distinct-fanout streaming pass are measured
/// round-robin and the quietest whole round is archived, so the
/// batch-vs-stream comparison is made under one machine-load epoch.
fn stream_scenario(scenario: &dyn DynScenario, reps: usize) {
    let name = scenario.name();
    let n_windows = scenario.len();
    let sequential = ThreadPool::sequential();
    let reference = scenario.score_batch(&sequential).0;
    let pools: Vec<ThreadPool> = STREAM_THREADS.iter().map(|&t| ThreadPool::new(t)).collect();
    let (distinct, measure_of) = dedupe_by_fanout(&pools);
    // Correctness first (and a warm-up pass per config): identical
    // severities at every thread count on every benchmark run.
    let mut est_pass = f64::INFINITY;
    for (pool, &threads) in pools.iter().zip(STREAM_THREADS.iter()) {
        let t0 = Instant::now();
        assert_eq!(
            scenario.score_stream(pool).0,
            reference,
            "{name}: streaming severities diverged from batch at {threads} threads"
        );
        est_pass = est_pass.min(t0.elapsed().as_secs_f64());
    }
    let inner = inner_passes(est_pass);
    // Round layout: batch first, then one slot per distinct fanout.
    let mut best_round: Vec<f64> = Vec::new();
    let mut best_total = f64::INFINITY;
    for _ in 0..reps {
        let mut times = Vec::with_capacity(1 + distinct.len());
        let t0 = Instant::now();
        for _ in 0..inner {
            std::hint::black_box(scenario.score_batch(&sequential).0);
        }
        times.push(t0.elapsed().as_secs_f64() / inner as f64);
        for &j in &distinct {
            let t0 = Instant::now();
            for _ in 0..inner {
                std::hint::black_box(scenario.score_stream(&pools[j]).0);
            }
            times.push(t0.elapsed().as_secs_f64() / inner as f64);
        }
        let total: f64 = times.iter().sum();
        if total < best_total {
            best_total = total;
            best_round = times;
        }
    }
    let batch_wps = n_windows as f64 / best_round[0];
    println!("{name}: {n_windows} windows (quietest of {reps} rounds):");
    println!("  {:<22} {:>12} {:>10}", "path", "windows/sec", "speedup");
    let mut rows = vec![("batch x1".to_string(), Rate::Measured(batch_wps))];
    let rates = ladder_rates(&pools, &distinct, &measure_of, |slot| {
        n_windows as f64 / best_round[1 + slot]
    });
    for (&threads, rate) in STREAM_THREADS.iter().zip(rates) {
        rows.push((format!("stream x{threads}"), rate));
    }
    for (label, rate) in &rows {
        print_row(label, *rate, batch_wps);
    }
    println!("  (streaming severities verified bit-for-bit against batch)");
    write_archive(&format!("stream_{name}"), n_windows, &rows);
}

/// Parses the `--sweep-threads` value: a non-empty comma-separated
/// list of positive thread counts (e.g. `1,2,4,8`).
fn parse_thread_ladder(raw: &str) -> Result<Vec<usize>, String> {
    let ladder: Vec<usize> = raw
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    format!("--sweep-threads expects positive integers, got {part:?} in {raw:?}")
                })
        })
        .collect::<Result<_, _>>()?;
    if ladder.is_empty() {
        return Err("--sweep-threads expects at least one thread count".to_string());
    }
    Ok(ladder)
}

/// Measures one registered scenario's single-stream scaling curve: the
/// streaming scorer over the whole stream at each ladder thread count,
/// each run asserted bit-for-bit equal to the sequential batch
/// reference, archived as `BENCH_scaling_<scenario>.json`.
///
/// Two measurement choices keep the curve honest on a loaded or small
/// machine. First, ladder entries are deduplicated by **effective
/// fanout**: `ThreadPool::new` clamps its fanout to the machine's
/// cores, so e.g. `x4` and `x8` on a 2-core host run instruction-for-
/// instruction identical schedules — measuring them separately would
/// report scheduler noise as if it were a scaling difference, so only
/// the first is measured and the others are archived as `clamped_to`
/// its fanout, with no rate. Second, the distinct configs are timed
/// **round-robin** (rep 1 of every config, then rep 2, …) and the
/// quietest whole round is archived, so every point on the curve is
/// measured under the same machine-load epoch.
fn sweep_scenario(scenario: &dyn DynScenario, ladder: &[usize], reps: usize) {
    let name = scenario.name();
    let n_windows = scenario.len();
    let reference = scenario.score_batch(&ThreadPool::sequential()).0;
    let pools: Vec<ThreadPool> = ladder.iter().map(|&t| ThreadPool::new(t)).collect();
    let (distinct, measure_of) = dedupe_by_fanout(&pools);
    // Correctness first (and a warm-up pass per config): identical
    // severities at every thread count on every benchmark run.
    let mut est_pass = f64::INFINITY;
    for (pool, &threads) in pools.iter().zip(ladder) {
        let t0 = Instant::now();
        assert_eq!(
            scenario.score_stream(pool).0,
            reference,
            "{name}: streaming severities diverged from batch at {threads} threads"
        );
        est_pass = est_pass.min(t0.elapsed().as_secs_f64());
    }
    let inner = inner_passes(est_pass);
    // Paired comparison: every pass does the same work, so what the
    // curve measures is how the runtime spends the same machine. Taking
    // each config's best pass independently would compare config A
    // under one load epoch against config B under another; instead,
    // archive the quietest whole round (smallest summed wall-clock
    // across the ladder), so all points on the curve share one epoch.
    let mut best_round: Vec<f64> = Vec::new();
    let mut best_total = f64::INFINITY;
    for _ in 0..reps {
        let times: Vec<f64> = distinct
            .iter()
            .map(|&j| {
                let t0 = Instant::now();
                for _ in 0..inner {
                    std::hint::black_box(scenario.score_stream(&pools[j]).0);
                }
                t0.elapsed().as_secs_f64() / inner as f64
            })
            .collect();
        let total: f64 = times.iter().sum();
        if total < best_total {
            best_total = total;
            best_round = times;
        }
    }
    println!(
        "{name}: {n_windows} windows (quietest of {reps} rounds, {} distinct fanout{}):",
        distinct.len(),
        if distinct.len() == 1 { "" } else { "s" }
    );
    println!("  {:<22} {:>12} {:>10}", "path", "windows/sec", "speedup");
    let base_wps = n_windows as f64 / best_round[measure_of[0]];
    let rates = ladder_rates(&pools, &distinct, &measure_of, |slot| {
        n_windows as f64 / best_round[slot]
    });
    let rows: Vec<(String, Rate)> = ladder
        .iter()
        .zip(rates)
        .map(|(&threads, rate)| (format!("stream x{threads}"), rate))
        .collect();
    for (label, rate) in &rows {
        print_row(label, *rate, base_wps);
    }
    println!("  (all runs verified bit-for-bit against the sequential batch reference)");
    write_archive(&format!("scaling_{name}"), n_windows, &rows);
}

/// The `--sweep-threads` mode: the single-stream scaling curve on every
/// scenario in the runtime registry, one archive per scenario.
fn run_sweep_mode(ladder: &[usize], n_windows: usize, reps: usize) {
    let scenarios = omg_bench::scenarios::all_scenarios(3, n_windows);
    println!(
        "== single-stream scaling sweep (threads {ladder:?}), {} registered scenarios ==\n",
        scenarios.len()
    );
    for scenario in &scenarios {
        sweep_scenario(scenario.as_ref(), ladder, reps);
    }
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    omg_bench::validate_args_or_exit(
        &args,
        &omg_bench::CliSpec {
            value_flags: &["--threads", "--windows", "--sweep-threads"],
            bare_flags: &["--stream", "--crowded", "--check-stream-archive"],
            max_positionals: 0,
        },
        "exp_throughput [--threads N] [--windows W] \
         [--stream | --sweep-threads 1,2,4,8 | --crowded | --check-stream-archive]",
    );
    // Friendly (exit-2, one-line) value parsing: a typo'd value must not
    // panic with a backtrace.
    let threads_flag = omg_bench::parse_usize_flag_cli(&args, "--threads");
    let windows_flag = omg_bench::parse_usize_flag_cli(&args, "--windows");
    let sweep_flag = omg_bench::parse_string_flag_cli(&args, "--sweep-threads").map(|raw| {
        parse_thread_ladder(&raw).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    });
    if omg_bench::has_flag(&args, "--check-stream-archive") {
        // The archive check runs no benchmark: a co-passed benchmark
        // flag would be silently dropped, so reject it instead.
        if omg_bench::has_flag(&args, "--stream")
            || omg_bench::has_flag(&args, "--crowded")
            || threads_flag.is_some()
            || windows_flag.is_some()
            || sweep_flag.is_some()
        {
            eprintln!(
                "error: --check-stream-archive only verifies the archived \
                 BENCH_*.json files; it takes no other flags"
            );
            std::process::exit(2);
        }
        check_stream_archive();
        return;
    }
    let env_threads = match omg_bench::env_threads() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let max_threads = threads_flag
        .or(env_threads)
        .unwrap_or_else(|| ThreadPool::available().threads());
    let n_windows = windows_flag.unwrap_or(2000);
    let reps = 3;

    if omg_bench::has_flag(&args, "--crowded") {
        // The crowded benchmark compares the grid-indexed matchers with
        // their reference, not thread counts: it is single-threaded by
        // construction, so a co-passed `--threads`, `--stream`, or
        // ladder conflicts with it.
        if threads_flag.is_some() || omg_bench::has_flag(&args, "--stream") || sweep_flag.is_some()
        {
            eprintln!(
                "error: --crowded is its own mode; it takes --windows only \
                 (it compares the matchers with their reference, not thread counts)"
            );
            std::process::exit(2);
        }
        // Fewer windows than the thread benchmarks: each window carries
        // up to 1000 boxes/frame, and the O(n²) reference pass is the
        // slow side being measured.
        run_crowded_mode(windows_flag.unwrap_or(12), reps.max(5));
        return;
    }

    if let Some(ladder) = sweep_flag {
        // The sweep *is* a thread ladder: a co-passed `--threads` or
        // `--stream` would conflict with it, so reject both.
        if threads_flag.is_some() || omg_bench::has_flag(&args, "--stream") {
            eprintln!(
                "error: --sweep-threads is its own mode; it takes --windows only \
                 (the ladder replaces --threads, and --stream runs the fixed 1/2/8 ladder)"
            );
            std::process::exit(2);
        }
        // Scaling curves compare configs against each other, so they
        // need more repetitions than a single-config throughput number
        // for the per-config minima to converge under machine noise.
        run_sweep_mode(&ladder, n_windows, reps.max(40));
        return;
    }

    if omg_bench::has_flag(&args, "--stream") {
        if threads_flag.is_some() {
            eprintln!(
                "error: --threads applies to the default mode only; --stream always \
                 runs the fixed 1/2/8 thread ladder the equivalence contract is \
                 specified at"
            );
            std::process::exit(2);
        }
        // Like the sweep, the stream mode compares configs against each
        // other (batch vs stream), so give the quietest-round search
        // more rounds than a single-config throughput number needs.
        run_stream_mode(n_windows, reps.max(15));
        return;
    }

    eprintln!("building {n_windows} night-street windows…");
    let windows: Vec<VideoWindow> = monitor_windows(n_windows, 3);
    let fresh = || Monitor::with_assertions(video_assertion_set(FLICKER_T));

    // Reference run: the sequential per-invocation monitor.
    let mut reference = fresh();
    let reference_reports: Vec<_> = windows.iter().map(|w| reference.process(w)).collect();
    let seq_secs = best_secs(reps, || {
        let mut m = fresh();
        for w in &windows {
            std::hint::black_box(m.process(w));
        }
    });
    let seq_wps = n_windows as f64 / seq_secs;

    println!(
        "monitor throughput, {n_windows} windows x {} assertions (best of {reps}):",
        reference.assertions().len()
    );
    println!("  {:<22} {:>12} {:>10}", "path", "windows/sec", "speedup");
    println!("  {:<22} {:>12.0} {:>9.2}x", "sequential", seq_wps, 1.0);

    let mut rows = vec![("sequential".to_string(), seq_wps)];
    let mut threads = 1usize;
    while threads <= max_threads {
        let pool = ThreadPool::new(threads);
        // Correctness first: the parallel path must reproduce the
        // sequential reports and database exactly.
        let mut check = fresh();
        let reports = check.process_batch(&windows, &pool);
        assert_eq!(
            reports, reference_reports,
            "process_batch({threads}) diverged from the sequential reports"
        );
        assert_eq!(
            check.db(),
            reference.db(),
            "process_batch({threads}) diverged from the sequential database"
        );
        let secs = best_secs(reps, || {
            let mut m = fresh();
            std::hint::black_box(m.process_batch(&windows, &pool));
        });
        let wps = n_windows as f64 / secs;
        let label = format!("batch x{threads}");
        println!("  {:<22} {:>12.0} {:>9.2}x", label, wps, wps / seq_wps);
        rows.push((label, wps));
        if threads == max_threads {
            break;
        }
        threads = (threads * 2).min(max_threads);
    }
    println!("  (parallel output verified bit-for-bit against sequential)");

    // Machine-readable trajectory, alongside the criterion JSONs.
    let rows: Vec<(String, Rate)> = rows
        .into_iter()
        .map(|(label, wps)| (label, Rate::Measured(wps)))
        .collect();
    write_archive("throughput", n_windows, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped_ladder_entries_archive_no_rate() {
        // Fanouts 1, 2, 2, 1: the last two repeat earlier entries'.
        let pools: Vec<ThreadPool> = [1, 2, 2, 1].into_iter().map(ThreadPool::exact).collect();
        let (distinct, measure_of) = dedupe_by_fanout(&pools);
        let rates = ladder_rates(&pools, &distinct, &measure_of, |slot| {
            100.0 * (slot + 1) as f64
        });
        assert_eq!(
            rates,
            [
                Rate::Measured(100.0),
                Rate::Measured(200.0),
                Rate::ClampedTo(2),
                Rate::ClampedTo(1)
            ]
        );
        let rows: Vec<String> = rates.iter().map(|r| r.json()).collect();
        assert_eq!(rows[1], "\"windows_per_sec\": 200.0");
        assert_eq!(rows[2], "\"clamped_to\": 2");
        let json = format!(
            "{{\"id\": \"stream x2\", {}}},\n{{\"id\": \"stream x4\", {}}}",
            rows[1], rows[2]
        );
        assert_eq!(archived_rate(&json, "stream x2"), Some(200.0));
        assert_eq!(archived_rate(&json, "stream x4"), None);
    }
}
