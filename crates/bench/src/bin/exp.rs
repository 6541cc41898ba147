//! The experiment multiplexer: one binary for the whole regeneration
//! suite.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p omg-bench --bin exp -- <experiment> \
//!     [--threads N] [--seed S]
//! ```
//!
//! `<experiment>` is one of the names in
//! [`omg_bench::experiments::EXPERIMENTS`] (`table1` … `table6`,
//! `fig3` … `fig9`, `gallery`, `service` — the multi-tenant soak, which
//! also archives `BENCH_service.json`) or `all` (the default), which
//! regenerates everything and archives the outputs under
//! `target/experiments/`.
//! `--threads` sets the scoring pool's worker count (default 1; results
//! are identical at any setting); `--seed` overrides the default seed of
//! the seed-parameterized experiments. Anything else — an unknown flag,
//! a typo'd `--thread`, a repeated flag, a zero or non-numeric
//! `--threads`, a second positional — exits with status 2 and a usage
//! message instead of being silently ignored.

use omg_core::runtime::ThreadPool;

/// The first positional (non-flag) argument, wherever it sits relative
/// to the flags. Every `exp` flag takes a value, so a bare `--flag`
/// consumes the following token; `exp --seed 5 table3` must select
/// `table3`, not silently fall back to `all`.
fn positional(args: &[String]) -> Option<&str> {
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            if !flag.contains('=') {
                it.next();
            }
            continue;
        }
        return Some(arg);
    }
    None
}

const USAGE: &str = "exp [<experiment>|all] [--threads N] [--seed S]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Reject unknown/malformed arguments before running anything: a
    // typo'd flag must not silently select a wrong configuration.
    omg_bench::validate_args_or_exit(
        &args,
        &omg_bench::CliSpec {
            value_flags: &["--threads", "--seed"],
            bare_flags: &[],
            max_positionals: 1,
        },
        USAGE,
    );
    let name = positional(&args).unwrap_or("all");
    if !omg_bench::experiments::is_known(name) {
        eprintln!(
            "error: unknown experiment {name:?}\nusage: {USAGE}\nexperiments: {}",
            omg_bench::experiments::EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
    let threads = omg_bench::parse_usize_flag_cli(&args, "--threads").unwrap_or(1);
    let seed = omg_bench::parse_u64_flag_cli(&args, "--seed");
    omg_bench::experiments::run_cli(name, seed, &ThreadPool::new(threads));
}
