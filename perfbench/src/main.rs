//! `perf` — the assertion monitor's performance benchmark.
//!
//! ```sh
//! perf --workload <name> --seed <u64> --seconds <n> [--trace <0|1>]
//! perf --compare <parent-dir> <change-dir> [--benchmark <BENCHMARK.json>]
//! perf --pairs <n> --parent <checkout> --change <checkout> --out <dir>
//!      [--workload <name>]...
//! perf --setup <workload> <seed>
//! ```
//!
//! A run builds its inputs from the seed, verifies one untimed pass,
//! measures for `--seconds`, times set-up in fresh `perf --setup`
//! processes before and after (to report the median set-up time), and
//! prints one JSON object as its last stdout line:
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics plus
//! a span file under `$CARGO_TARGET_DIR/perf/` (default `.bench_build`).
//! Every output is checked against the sequential reference; the process
//! exits 1 after printing if any differs. See README.md.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use omg_perfbench::{
    compare, flag_values, json, run_workload, setup_seconds, Run, END_TO_END, PER_LAYER, WORKLOADS,
};

const USAGE: &str =
    "usage: perf --workload <name> --seed <u64> --seconds <n> [--trace <0|1>]\n       \
     perf --compare <parent-dir> <change-dir> [--benchmark <BENCHMARK.json>]\n       \
     perf --pairs <n> --parent <checkout> --change <checkout> --out <dir> \
     [--workload <name>]...\n       \
     perf --setup <workload> <seed>";

fn parse_run(args: &[String]) -> Result<Run, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    for (flag, value) in flag_values(args)? {
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.into_iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        // Required, so that a run's length is always the one the caller
        // states (`BENCHMARK.json`'s `run_seconds`), never a default.
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Where the span file of a traced run goes.
fn span_path(run: &Run) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target)
        .join("perf")
        .join(format!("trace-{}-{}.json", run.workload, run.seed))
}

fn run_main(args: &[String]) -> ExitCode {
    let run = match parse_run(args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(&run);
    println!(
        "# {} seed {} | {} s | trace {} | available_parallelism {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    if let Some(trace) = &outcome.trace {
        let path = span_path(&run);
        match trace.write(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                trace.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let expected: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in expected {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{} measured no {name}", run.workload));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        println!("# {name:<18} {value:>16.4} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }
    let c = outcome.checked;
    let correct = c.mismatched == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.windows + c.refused,
        c.mismatched + c.refused,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} windows differ from the sequential reference",
            c.mismatched, c.windows
        );
        ExitCode::FAILURE
    }
}

/// `perf --setup <workload> <seed>`: one set-up in this process; prints
/// its seconds (see `omg_perfbench::setup_batch`).
fn setup_main(args: &[String]) -> Result<(), String> {
    let [workload, seed] = args else {
        return Err("--setup needs <workload> <seed>".to_string());
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    println!("{}", setup_seconds(workload, seed));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--compare") => compare::compare_main(&args[1..]),
        Some("--pairs") => compare::pairs_main(&args[1..]),
        Some("--setup") => setup_main(&args[1..]),
        _ => return run_main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
