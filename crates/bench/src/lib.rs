//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (see `DESIGN.md` §5 for the experiment index).
//!
//! Each scenario module wires a simulated world (`omg-sim`) and the
//! deployed assertions (`omg-domains`) into an implementation of the
//! [`omg_scenario::Scenario`] trait; the generic engine in
//! `omg-scenario` then provides batch scoring, streaming scoring, the
//! active learner, and the error analysis for all of them. The
//! [`scenarios`] module is the runtime registry the binaries, benches,
//! and conformance tests iterate:
//!
//! * [`video`] — night-street video analytics (Figures 3, 4a, 9a;
//!   Tables 3, 4, 6);
//! * [`avx`] — AV camera/LIDAR fusion (Figure 4b; Tables 3, 4);
//! * [`ecgx`] — ECG rhythm classification (Figure 5; Table 4);
//! * [`newsx`] — TV news monitoring (Tables 1-3);
//! * [`highway`] — highway multi-sensor fusion, the fifth scenario
//!   proving the engine's abstraction.
//!
//! The `exp` binary multiplexes the experiment suite (`exp table1`,
//! `exp fig5`, `exp all`, …); run
//! `cargo run --release -p omg-bench --bin exp -- all` to regenerate
//! everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avx;
pub mod crowd;
pub mod ecgx;
pub mod experiments;
pub mod highway;
pub mod loc;
pub mod newsx;
pub mod scenarios;
pub mod video;

use omg_eval::stats;

/// Finds a `--flag N` / `--flag=N` occurrence in an argument list:
/// `None` if the flag is absent, `Some(None)` if it is present with no
/// value, `Some(Some(v))` with the raw value otherwise.
fn raw_flag_value<'a>(args: &'a [String], flag: &str) -> Option<Option<&'a str>> {
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            return Some(args.get(i + 1).map(|s| s.as_str()));
        }
        if let Some(value) = arg.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Some(Some(value));
        }
    }
    None
}

/// Parses a `--flag N` / `--flag=N` positive-integer option for binary
/// `main`s: a missing, zero, or non-numeric value exits with a one-line
/// error and status 2 (a CLI mistake, not a crash — no backtrace).
pub fn parse_usize_flag_cli(args: &[String], flag: &str) -> Option<usize> {
    let value = match raw_flag_value(args, flag)? {
        Some(v) => v,
        None => cli_error(format_args!("{flag} expects a value")),
    };
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => cli_error(format_args!(
            "{flag} expects a positive integer, got {value:?}"
        )),
    }
}

/// Parses a `--flag N` / `--flag=N` unsigned-seed option for binary
/// `main`s (zero is a legitimate seed): a missing or non-numeric value
/// exits with a one-line error and status 2.
pub fn parse_u64_flag_cli(args: &[String], flag: &str) -> Option<u64> {
    let value = match raw_flag_value(args, flag)? {
        Some(v) => v,
        None => cli_error(format_args!("{flag} expects a value")),
    };
    match value.parse() {
        Ok(n) => Some(n),
        Err(_) => cli_error(format_args!(
            "{flag} expects an unsigned integer, got {value:?}"
        )),
    }
}

/// Whether a bare `--flag` is present in an argument list.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The command-line contract of an experiment binary: which
/// `--flag <value>` options and bare `--flag` switches it accepts, and
/// how many positional arguments. [`validate_args_or_exit`] rejects
/// anything else.
#[derive(Debug, Clone, Copy)]
pub struct CliSpec {
    /// Flags that take a value (`--flag N` or `--flag=N`).
    pub value_flags: &'static [&'static str],
    /// Bare switches (`--flag` only; `--flag=x` is rejected).
    pub bare_flags: &'static [&'static str],
    /// Maximum number of positional (non-flag) arguments.
    pub max_positionals: usize,
}

/// Validates an argument list (`args[0]`, the binary name, is skipped)
/// against a [`CliSpec`]: every `--flag` must be declared, value flags
/// must carry a value, bare switches must not (`--stream=yes` is an
/// error, not a silently dropped no-op), and at most
/// `max_positionals` positional arguments may appear. A typo'd flag
/// (`--thread 8`) or a repeated one (`--seed 1 --seed 2`, of which the
/// parsers would read only the first) is rejected up front instead of
/// silently running the wrong configuration.
fn validate_args(args: &[String], spec: &CliSpec) -> Result<(), String> {
    let mut positionals = 0usize;
    let mut seen: Vec<String> = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        if let Some(body) = arg.strip_prefix("--") {
            let (name, eq_value) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (body, None),
            };
            let dashed = format!("--{name}");
            if seen.contains(&dashed) {
                return Err(format!("{dashed} given more than once"));
            }
            seen.push(dashed.clone());
            if spec.value_flags.contains(&dashed.as_str()) {
                if eq_value.is_none() && it.next().is_none() {
                    return Err(format!("{dashed} expects a value"));
                }
            } else if spec.bare_flags.contains(&dashed.as_str()) {
                if eq_value.is_some() {
                    return Err(format!("{dashed} takes no value (got {arg:?})"));
                }
            } else {
                return Err(format!("unrecognized flag {arg:?}"));
            }
        } else {
            positionals += 1;
            if positionals > spec.max_positionals {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
    }
    Ok(())
}

/// Validates `args` against `spec` for binary `main`s: on any
/// violation, prints the error plus a usage line to stderr and exits
/// with status 2 (a CLI mistake, not a crash — no backtrace).
pub fn validate_args_or_exit(args: &[String], spec: &CliSpec, usage: &str) {
    if let Err(e) = validate_args(args, spec) {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2);
    }
}

/// Exits with a friendly CLI error (status 2, no backtrace).
fn cli_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Mean and standard error of one experiment series across trials.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSummary {
    /// Label of the series (strategy name etc.).
    pub label: String,
    /// Per-round means.
    pub mean: Vec<f64>,
    /// Per-round standard errors.
    pub stderr: Vec<f64>,
}

/// Summarizes per-trial series (each `trials[k][r]` = trial `k`, round `r`)
/// into per-round mean ± s.e.
///
/// # Panics
///
/// Panics if trials have inconsistent lengths or there are none.
pub fn summarize_series(label: &str, trials: &[Vec<f64>]) -> SeriesSummary {
    assert!(!trials.is_empty(), "need at least one trial");
    let rounds = trials[0].len();
    assert!(
        trials.iter().all(|t| t.len() == rounds),
        "ragged trial series"
    );
    let mut mean = Vec::with_capacity(rounds);
    let mut stderr = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let col: Vec<f64> = trials.iter().map(|t| t[r]).collect();
        mean.push(stats::mean(&col));
        stderr.push(stats::std_err(&col));
    }
    SeriesSummary {
        label: label.to_string(),
        mean,
        stderr,
    }
}

/// Writes `BENCH_<bench>.json` into the committed archive directory
/// ([`criterion::bench_output_dir`]): the shared
/// [`criterion::archive_header`], then `fields` as `"name": value` lines
/// (values already rendered as JSON), then `rows` (rendered JSON
/// objects) under `"results"`. A write failure is fatal: the archives
/// are the contract CI enforces (`exp_throughput --check-stream-archive`),
/// so a missing file must fail the run, not scroll by as a warning.
pub fn write_archive(bench: &str, fields: &[(&str, String)], rows: &[String]) {
    let json = render_archive(bench, fields, rows);
    let dir = criterion::bench_output_dir();
    let path = dir.join(format!("BENCH_{bench}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The JSON [`write_archive`] writes.
fn render_archive(bench: &str, fields: &[(&str, String)], rows: &[String]) -> String {
    let mut json = criterion::archive_header(bench);
    for (name, value) in fields {
        json.push_str(&format!("  \"{name}\": {value},\n"));
    }
    let rows: Vec<String> = rows.iter().map(|row| format!("    {row}")).collect();
    json.push_str(&format!(
        "  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ));
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archives_open_with_the_shared_header() {
        let rows = ["{\"id\": \"stream x1\", \"windows_per_sec\": 10.0}".to_string()];
        let json = render_archive("stream_video", &[("windows", "200".to_string())], &rows);
        let header = criterion::archive_header("stream_video");
        assert!(json.starts_with(&header), "{json}");
        assert!(header.contains("\"available_parallelism\": "));
        assert!(header.contains("\"profile\": "));
        assert_eq!(
            &json[header.len()..],
            "  \"windows\": 200,\n  \"results\": [\n    {\"id\": \"stream x1\", \
             \"windows_per_sec\": 10.0}\n  ]\n}\n"
        );
    }

    #[test]
    fn summarize_series_means_and_stderr() {
        let s = summarize_series("x", &[vec![1.0, 3.0], vec![3.0, 5.0]]);
        assert_eq!(s.mean, vec![2.0, 4.0]);
        assert!(s.stderr[0] > 0.0);
        assert_eq!(s.label, "x");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_series_rejected() {
        summarize_series("x", &[vec![1.0], vec![1.0, 2.0]]);
    }

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn raw_flag_value_accepts_both_forms() {
        assert_eq!(
            raw_flag_value(&args(&["bin", "--threads", "4"]), "--threads"),
            Some(Some("4"))
        );
        assert_eq!(
            raw_flag_value(&args(&["bin", "--threads=8"]), "--threads"),
            Some(Some("8"))
        );
        assert_eq!(
            raw_flag_value(&args(&["bin", "--threads"]), "--threads"),
            Some(None)
        );
        assert_eq!(raw_flag_value(&args(&["bin"]), "--threads"), None);
        // A different flag's prefix must not match.
        assert_eq!(
            raw_flag_value(&args(&["bin", "--threadstorm=2"]), "--threads"),
            None
        );
    }

    #[test]
    fn has_flag_matches_exactly() {
        assert!(has_flag(&args(&["bin", "--stream"]), "--stream"));
        assert!(!has_flag(&args(&["bin", "--streams"]), "--stream"));
    }

    const SPEC: CliSpec = CliSpec {
        value_flags: &["--threads", "--seed"],
        bare_flags: &["--stream"],
        max_positionals: 1,
    };

    #[test]
    fn validate_args_accepts_declared_shapes() {
        for ok in [
            vec!["bin"],
            vec!["bin", "table3"],
            vec!["bin", "--threads", "4", "table3"],
            vec!["bin", "--threads=4"],
            vec!["bin", "--seed", "0", "--stream"],
            vec!["bin", "table3", "--stream", "--seed=7"],
        ] {
            assert_eq!(validate_args(&args(&ok), &SPEC), Ok(()), "{ok:?}");
        }
    }

    #[test]
    fn validate_args_rejects_unknown_and_malformed() {
        // The old foot-guns: each of these used to run a wrong
        // configuration without a word.
        let cases = [
            (vec!["bin", "--thread", "8"], "unrecognized flag"),
            (vec!["bin", "--stream=yes"], "takes no value"),
            (vec!["bin", "--streams"], "unrecognized flag"),
            (vec!["bin", "--threads"], "expects a value"),
            (vec!["bin", "a", "b"], "unexpected argument"),
            (
                vec!["bin", "--seed", "1", "--seed", "2"],
                "--seed given more than once",
            ),
            (
                vec!["bin", "--threads=2", "--threads", "8"],
                "--threads given more than once",
            ),
            (
                vec!["bin", "--stream", "--stream"],
                "--stream given more than once",
            ),
        ];
        for (argv, want) in cases {
            let err = validate_args(&args(&argv), &SPEC).expect_err(&format!("{argv:?}"));
            assert!(err.contains(want), "{argv:?}: {err}");
        }
    }
}
