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

use std::sync::OnceLock;

use omg_core::runtime::ThreadPool;
use omg_eval::stats;

/// The worker count the experiment binaries run scoring fan-outs with.
/// Pinned once by [`set_threads`] / [`init_runtime_from_args`], or by
/// the first [`threads`] read (from `OMG_THREADS`, else 1).
static THREADS: OnceLock<usize> = OnceLock::new();

/// Why a requested worker count was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadsError {
    /// Zero workers requested (`--threads 0` / `OMG_THREADS=0` /
    /// `set_threads(0)`); scoring needs at least one.
    Zero {
        /// Which knob carried the zero.
        source: &'static str,
    },
    /// The worker count is already pinned to a different value — by an
    /// earlier [`set_threads`] or by the first [`threads`] read. (The
    /// old `set_threads` silently dropped the new value here.)
    Conflict {
        /// The value already pinned.
        current: usize,
        /// The conflicting new request.
        requested: usize,
    },
    /// `OMG_THREADS` held something other than an unsigned integer.
    Invalid {
        /// The unparsable value.
        value: String,
    },
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadsError::Zero { source } => {
                write!(f, "{source} must be at least 1 (0 workers cannot score)")
            }
            ThreadsError::Conflict { current, requested } => write!(
                f,
                "worker count is already pinned to {current}; cannot re-pin to {requested} \
                 (set --threads once, before any scoring runs)"
            ),
            ThreadsError::Invalid { value } => {
                write!(f, "OMG_THREADS expects a positive integer, got {value:?}")
            }
        }
    }
}

impl std::error::Error for ThreadsError {}

/// Pins the harness-wide worker count. Idempotent for the same value;
/// a *different* value after the count is pinned (by an earlier call or
/// a first [`threads`] read) is reported as [`ThreadsError::Conflict`]
/// instead of being silently dropped, and zero is rejected as
/// [`ThreadsError::Zero`].
pub fn set_threads(threads: usize) -> Result<(), ThreadsError> {
    if threads == 0 {
        return Err(ThreadsError::Zero {
            source: "--threads",
        });
    }
    match THREADS.set(threads) {
        Ok(()) => Ok(()),
        Err(_) => {
            let current = *THREADS.get().expect("set failed, so a value is pinned");
            if current == threads {
                Ok(())
            } else {
                Err(ThreadsError::Conflict {
                    current,
                    requested: threads,
                })
            }
        }
    }
}

/// The `OMG_THREADS` environment variable, validated: `Ok(None)` when
/// unset, [`ThreadsError`] when set to zero or garbage.
pub fn env_threads() -> Result<Option<usize>, ThreadsError> {
    match std::env::var("OMG_THREADS") {
        Err(_) => Ok(None),
        Ok(v) => match v.parse::<usize>() {
            Ok(0) => Err(ThreadsError::Zero {
                source: "OMG_THREADS",
            }),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(ThreadsError::Invalid { value: v }),
        },
    }
}

/// The configured worker count: `--threads` / [`set_threads`] if given,
/// else the `OMG_THREADS` environment variable, else 1 (sequential, the
/// deterministic default every test runs with — results are identical at
/// any setting, only wall-clock changes). The first read pins the value;
/// see [`set_threads`] for the conflict rules.
///
/// # Panics
///
/// Panics if `OMG_THREADS` is set to zero or garbage — binaries validate
/// it up front in [`init_runtime_from_args`] and exit with a friendly
/// message instead.
pub fn threads() -> usize {
    *THREADS.get_or_init(|| match env_threads() {
        Ok(n) => n.unwrap_or(1),
        // PANIC: documented — a garbage OMG_THREADS is a startup
        // config error; binaries validate it before scoring starts.
        Err(e) => panic!("{e}"),
    })
}

/// The scoring runtime sized by [`threads`].
pub fn runtime() -> ThreadPool {
    ThreadPool::new(threads())
}

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
/// how many positional arguments. [`validate_args`] rejects anything
/// else.
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
/// (`--thread 8`) is rejected up front instead of silently running the
/// wrong configuration.
pub fn validate_args(args: &[String], spec: &CliSpec) -> Result<(), String> {
    let mut positionals = 0usize;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        if let Some(body) = arg.strip_prefix("--") {
            let (name, eq_value) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (body, None),
            };
            let dashed = format!("--{name}");
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

/// [`validate_args`] for binary `main`s: on any violation, prints the
/// error plus a usage line to stderr and exits with status 2 (a CLI
/// mistake, not a crash — no backtrace).
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

/// Parses `--threads N` (or `--threads=N`) from the process arguments
/// and pins the harness-wide worker count; with no flag, validates (and
/// pins) `OMG_THREADS` instead. Every experiment binary calls this
/// first. Precedence: `--threads` beats `OMG_THREADS` beats the
/// sequential default of 1.
///
/// All misconfigurations — `--threads 0`, `OMG_THREADS=0`, garbage in
/// either, a value conflicting with an already-pinned count — exit with
/// a one-line error and status 2 instead of panicking or being silently
/// dropped.
pub fn init_runtime_from_args() {
    let args: Vec<String> = std::env::args().collect();
    let env = match env_threads() {
        Ok(n) => n,
        Err(e) => cli_error(e),
    };
    let cli = match raw_flag_value(&args, "--threads") {
        None => None,
        Some(None) => cli_error("--threads expects a value"),
        Some(Some(v)) => match v.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => cli_error(format_args!(
                "--threads expects an unsigned integer, got {v:?}"
            )),
        },
    };
    if let Some(n) = cli.or(env) {
        if let Err(e) = set_threads(n) {
            cli_error(e);
        }
    }
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

    #[test]
    fn set_threads_rejects_zero_and_conflicts() {
        if std::env::var("OMG_THREADS").is_ok() {
            return; // the environment already pins a different count
        }
        assert_eq!(
            set_threads(0),
            Err(ThreadsError::Zero {
                source: "--threads"
            })
        );
        // Pin to 1 — identical to the lazy sequential default, so this
        // test cannot perturb the other tests in this process.
        assert_eq!(set_threads(1), Ok(()));
        assert_eq!(set_threads(1), Ok(()), "re-pinning the same value is fine");
        assert_eq!(
            set_threads(9),
            Err(ThreadsError::Conflict {
                current: 1,
                requested: 9
            }),
            "a conflicting value must be reported, not silently dropped"
        );
        assert_eq!(threads(), 1);
    }

    #[test]
    fn threads_errors_render_their_knob() {
        let zero = ThreadsError::Zero {
            source: "OMG_THREADS",
        };
        assert!(zero.to_string().contains("OMG_THREADS"));
        let conflict = ThreadsError::Conflict {
            current: 2,
            requested: 8,
        };
        assert!(conflict.to_string().contains('2') && conflict.to_string().contains('8'));
        let invalid = ThreadsError::Invalid {
            value: "lots".into(),
        };
        assert!(invalid.to_string().contains("lots"));
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
        ];
        for (argv, want) in cases {
            let err = validate_args(&args(&argv), &SPEC).expect_err(&format!("{argv:?}"));
            assert!(err.contains(want), "{argv:?}: {err}");
        }
    }
}
