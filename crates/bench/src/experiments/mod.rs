//! One module per regenerated table/figure. Each experiment returns its
//! rendered output as a `String`; [`run_cli`] is the dispatch behind the
//! `exp` multiplexer binary (`exp table1`, `exp fig5`, `exp all`, …), so
//! the binaries stay thin and `exp all` can assemble
//! `EXPERIMENTS.md`-ready output.

use std::fs;
use std::path::Path;

use omg_core::runtime::ThreadPool;

mod fig3;
mod fig4;
mod fig5;
mod gallery;
mod service;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;

/// Standard trial seeds (experiments report mean ± s.e. across these).
pub fn trial_seeds(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 1000 + 37 * i).collect()
}

/// The experiment names `exp <name>` accepts, in `exp all` order.
pub const EXPERIMENTS: [&str; 13] = [
    "table1", "table2", "table3", "fig3", "fig4a", "fig4b", "fig5", "table4", "fig9", "table5",
    "table6", "gallery", "service",
];

/// Whether `name` is an experiment [`run_cli`] accepts (an entry of
/// [`EXPERIMENTS`], or `"all"`). Binaries check this up front so an
/// unknown name is a usage error, not a panic.
pub fn is_known(name: &str) -> bool {
    name == "all" || EXPERIMENTS.contains(&name)
}

/// Runs one named experiment with the suite-standard parameters and
/// returns its `(output name, rendered text)` pairs, or `None` for an
/// unknown name. `seed` (from `--seed`) overrides the default seed of
/// the seed-parameterized experiments; the trial-averaged experiments
/// use the fixed [`trial_seeds`] ladder regardless. The experiments
/// that score do it on `pool`; their output is the same at any worker
/// count.
fn run_named(
    name: &str,
    seed: Option<u64>,
    pool: &ThreadPool,
) -> Option<Vec<(&'static str, String)>> {
    let out = match name {
        "table1" => vec![("table1", table1::run())],
        "table2" => vec![("table2", table2::run())],
        "table3" => vec![("table3", table3::run(seed.unwrap_or(2024), pool))],
        "table4" => vec![("table4", table4::run(3))],
        "table5" => vec![("table5", table5::run())],
        "table6" => vec![("table6", table6::run(seed.unwrap_or(33)))],
        "fig3" => vec![("fig3", fig3::run(seed.unwrap_or(77)))],
        "fig4a" => vec![
            ("fig4a", fig4::run_video(2, 5, 100, false, pool)),
            ("fig4a_savings", fig4::label_savings(2, 5, 100, 85.0, pool)),
        ],
        "fig4b" => vec![("fig4b", fig4::run_av(4, 5, 60, false, pool))],
        "fig5" => vec![("fig5", fig5::run(4, 5, 100, pool))],
        "fig9" => vec![("fig9", {
            let mut s = fig4::run_video(2, 5, 100, true, pool);
            s.push_str(&fig4::run_av(4, 5, 60, true, pool));
            s
        })],
        "gallery" => vec![("gallery", gallery::run(seed.unwrap_or(5)))],
        "service" => vec![("service", service::run(seed.unwrap_or(7), pool))],
        _ => return None,
    };
    Some(out)
}

/// The `exp` binary's dispatch: `name` is an experiment from
/// [`EXPERIMENTS`] (printed to stdout) or `"all"` (every experiment, in
/// order, printed and archived under `target/experiments/`), scored on
/// `pool`.
///
/// # Panics
///
/// Panics on an unknown experiment name, listing the valid ones.
pub fn run_cli(name: &str, seed: Option<u64>, pool: &ThreadPool) {
    if name == "all" {
        let dir = Path::new("target/experiments");
        fs::create_dir_all(dir).expect("create output dir");
        let mut written = 0usize;
        for exp in EXPERIMENTS {
            for (out_name, text) in run_named(exp, seed, pool).expect("suite names are valid") {
                fs::write(dir.join(format!("{out_name}.txt")), &text).expect("write output");
                println!("{text}");
                written += 1;
            }
        }
        println!("wrote {written} outputs under target/experiments/");
        return;
    }
    let outputs = run_named(name, seed, pool).unwrap_or_else(|| {
        panic!(
            "unknown experiment {name:?}; expected one of {:?} or \"all\"",
            EXPERIMENTS
        )
    });
    for (_, text) in outputs {
        print!("{text}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_distinct() {
        let seeds = trial_seeds(8);
        let mut s = seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn every_suite_name_dispatches() {
        // Cheap static experiments actually run; expensive ones only
        // need to be *known* — probe the dispatch table, not the work.
        let pool = ThreadPool::sequential();
        assert!(run_named("table1", None, &pool).is_some());
        assert!(run_named("table2", None, &pool).is_some());
        assert!(run_named("table5", None, &pool).is_some());
        assert!(run_named("definitely-not-an-experiment", None, &pool).is_none());
    }

    #[test]
    fn is_known_covers_the_suite_and_all() {
        assert!(is_known("all"));
        for e in EXPERIMENTS {
            assert!(is_known(e), "{e}");
        }
        assert!(!is_known("table9"));
    }
}
