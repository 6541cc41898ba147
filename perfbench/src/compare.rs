//! `perf --compare` and `perf --pairs`: parent-versus-change comparison
//! of run results under the benchmark's own bounds.
//!
//! A result directory holds `<workload>/<run>.json` files, each holding
//! a run's stdout (its last line is the result object). Runs of the two
//! sides pair up by file name, which `--pairs` sets to the seed. A run
//! whose outputs failed verification (`"correct": false`) is refused: it
//! measured a wrong program.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::measure::{median, quartiles};

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct MetricSpec {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// The parts of `BENCHMARK.json` the comparison uses.
#[derive(Debug, Clone)]
struct Spec {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
}

impl Spec {
    /// Reads and checks `BENCHMARK.json`.
    fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = |what: &str| format!("{}: bad or missing {what}", path.display());
        let strings = |v: &Json| -> Option<Vec<String>> {
            v.as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let command = doc
            .get("command")
            .and_then(strings)
            .filter(|c| !c.is_empty())
            .ok_or_else(|| bad("command"))?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("run_seconds"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .and_then(|ws| {
                ws.iter()
                    .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                    .collect()
            })
            .ok_or_else(|| bad("workloads"))?;
        let end_to_end = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .and_then(|ms| {
                ms.iter()
                    .map(|m| {
                        Some(MetricSpec {
                            name: m.get("name")?.as_str()?.to_string(),
                            unit: m.get("unit")?.as_str()?.to_string(),
                            higher_is_better: match m.get("better")?.as_str()? {
                                "higher" => true,
                                "lower" => false,
                                _ => return None,
                            },
                            bound: m.get("bound")?.as_f64()?,
                        })
                    })
                    .collect()
            })
            .ok_or_else(|| bad("end_to_end"))?;
        Ok(Spec {
            command,
            run_seconds,
            workloads,
            end_to_end,
        })
    }
}

/// Metric values of each run, by workload then run name.
type Runs = BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>>;

/// The comparison's row for failed operations.
const FAILED_SHARE: &str = "failed_share";

/// Parses the result object on the last non-empty line of a run's stdout
/// into its metric values plus [`FAILED_SHARE`], `failed` ÷ `attempted`;
/// refuses a run whose outputs failed verification.
fn parse_result(stdout: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let doc = Json::parse(line)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err("the run's outputs failed verification (\"correct\" is not true)".into());
    }
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .filter(|v| *v >= 0.0)
            .ok_or_else(|| format!("result has no count {key:?}"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    if attempted < 1.0 || failed > attempted {
        return Err(format!(
            "result has {failed} failed of {attempted} attempted"
        ));
    }
    let mut metrics: BTreeMap<String, f64> = doc
        .get("metrics")
        .and_then(Json::as_object)
        .and_then(|ms| {
            ms.iter()
                .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect()
        })
        .ok_or("result has no metrics object")?;
    metrics.insert(FAILED_SHARE.to_string(), failed / attempted);
    Ok(metrics)
}

fn load_runs(dir: &Path) -> Result<Runs, String> {
    let read = |p: &Path| std::fs::read_dir(p).map_err(|e| format!("reading {}: {e}", p.display()));
    let mut runs = Runs::new();
    for workload in read(dir)? {
        let workload = workload.map_err(|e| e.to_string())?.path();
        if !workload.is_dir() {
            continue;
        }
        let name = workload
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        for file in read(&workload)? {
            let file = file.map_err(|e| e.to_string())?.path();
            if file.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&file).map_err(|e| e.to_string())?;
                let result = parse_result(&text).map_err(|e| format!("{}: {e}", file.display()))?;
                let run = file
                    .file_stem()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned();
                runs.entry(name.clone()).or_default().insert(run, result);
            }
        }
    }
    Ok(runs)
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The change won at least 9/10 of the pairs and its median beats
    /// the parent's by more than the parent's interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound, or would be a gain but the change fails more operations.
    Regression,
    /// The parent's own spread exceeds the bound: no conclusion.
    Unresolved,
    /// Neither a gain nor worse by more than the bound.
    WithinBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within-bound",
        }
    }
}

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

fn summarize(values: &[f64]) -> Summary {
    let m = median(values);
    let (q1, q3) = if values.len() >= 2 {
        let q = quartiles(values);
        (q[0], q[2])
    } else {
        (m, m)
    };
    Summary { median: m, q1, q3 }
}

/// Applies the pair rule to one metric. `pairs` holds `(parent, change)`
/// values of runs made on the same seed. A gain does not count when the
/// change fails more operations than the parent (`more_failures`): it is
/// a regression.
fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    spec: &MetricSpec,
    more_failures: bool,
) -> (Verdict, usize) {
    let (p, c) = (summarize(parent), summarize(change));
    let sign = if spec.higher_is_better { 1.0 } else { -1.0 };
    let won = pairs
        .iter()
        .filter(|(pv, cv)| (cv - pv) * sign > 0.0)
        .count();
    let improvement = (c.median - p.median) * sign;
    let iqr = p.q3 - p.q1;
    let v = if !pairs.is_empty() && won * 10 >= pairs.len() * 9 && improvement > iqr {
        if more_failures {
            Verdict::Regression
        } else {
            Verdict::Gain
        }
    } else if iqr > spec.bound * p.median.abs() {
        Verdict::Unresolved
    } else if -improvement > spec.bound * p.median.abs() {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    };
    (v, won)
}

/// The row for failed operations, where any rise of the change's median
/// is a regression.
fn failed_share_spec() -> MetricSpec {
    MetricSpec {
        name: FAILED_SHARE.to_string(),
        unit: "share".to_string(),
        higher_is_better: false,
        bound: 0.0,
    }
}

/// Compares every end-to-end metric on every workload both sides ran and
/// prints one row each, after a row for the share of failed operations.
fn compare_dirs(parent: &Path, change: &Path, spec: &Spec) -> Result<(), String> {
    let (parent, change) = (load_runs(parent)?, load_runs(change)?);
    println!(
        "{:<17} {:<18} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "won"
    );
    let failed = failed_share_spec();
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        let values = |runs: &BTreeMap<String, BTreeMap<String, f64>>, m: &MetricSpec| {
            runs.values()
                .filter_map(|r| r.get(&m.name).copied())
                .collect::<Vec<f64>>()
        };
        let shares = (values(p_runs, &failed), values(c_runs, &failed));
        let more_failures = median(&shares.1) > median(&shares.0);
        for m in std::iter::once(&failed).chain(&spec.end_to_end) {
            let (pv, cv) = (values(p_runs, m), values(c_runs, m));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = p_runs
                .iter()
                .filter_map(|(run, r)| Some((*r.get(&m.name)?, *c_runs.get(run)?.get(&m.name)?)))
                .collect();
            let (v, won) = verdict(&pv, &cv, &pairs, m, more_failures);
            let (p, c) = (summarize(&pv), summarize(&cv));
            let side =
                |s: Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, m.unit);
            let relative = if p.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (c.median / p.median - 1.0))
            };
            println!(
                "{workload:<17} {:<18} {:>34} {:>34} {relative:>8} {:>6}  {}",
                m.name,
                side(p),
                side(c),
                format!("{won}/{}", pairs.len()),
                v.label()
            );
        }
    }
    Ok(())
}

/// `perf --compare <parent-dir> <change-dir> [--benchmark <path>]`.
pub fn compare_main(args: &[String]) -> Result<(), String> {
    let [parent, change, rest @ ..] = args else {
        return Err("--compare needs <parent-dir> <change-dir>".to_string());
    };
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    for (flag, value) in crate::flag_values(rest)? {
        match flag.as_str() {
            "--benchmark" => benchmark = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let spec = Spec::load(&benchmark)?;
    compare_dirs(Path::new(parent), Path::new(change), &spec)
}

/// Runs one side's benchmark command in its checkout, for the run length
/// its `BENCHMARK.json` sets, and returns stdout; fails unless the run
/// printed a result whose outputs passed verification.
fn run_side(checkout: &Path, spec: &Spec, workload: &str, seed: u64) -> Result<String, String> {
    let target = checkout.join(".bench_build");
    let output = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &spec.run_seconds.to_string(), "--trace", "0"])
        .current_dir(checkout)
        .env("CARGO_TARGET_DIR", &target)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {:?} in {}: {e}", spec.command, checkout.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    parse_result(&stdout).map_err(|e| {
        format!(
            "{workload} seed {seed} in {} ({}): {e}",
            checkout.display(),
            output.status
        )
    })?;
    Ok(stdout)
}

/// `perf --pairs <n> --parent <checkout> --change <checkout> --out <dir>
/// [--workload <name>]...`: runs `n` pairs per workload on seeds 1..=n,
/// alternating which side runs first, writes every run under
/// `<out>/{parent,change}/<workload>/<seed>.json`, then compares. Both
/// sides run for the `run_seconds` their `BENCHMARK.json` files set,
/// which must agree.
pub fn pairs_main(args: &[String]) -> Result<(), String> {
    let [n, rest @ ..] = args else {
        return Err("--pairs needs a count".to_string());
    };
    let n: u64 = n.parse().map_err(|_| format!("bad --pairs count {n:?}"))?;
    let (mut parent, mut change, mut out) = (None, None, None);
    let mut workloads = Vec::new();
    for (flag, value) in crate::flag_values(rest)? {
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value)),
            "--change" => change = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--workload" => workloads.push(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let absolute = |p: Option<PathBuf>, what: &str| -> Result<PathBuf, String> {
        let p = p.ok_or_else(|| format!("--pairs needs {what}"))?;
        std::fs::canonicalize(&p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let sides = [
        ("parent", absolute(parent, "--parent")?),
        ("change", absolute(change, "--change")?),
    ];
    let out = out.ok_or("--pairs needs --out")?;
    let specs = [
        Spec::load(&sides[0].1.join("BENCHMARK.json"))?,
        Spec::load(&sides[1].1.join("BENCHMARK.json"))?,
    ];
    if workloads.is_empty() {
        workloads = specs[0].workloads.clone();
    }
    if specs[0].run_seconds != specs[1].run_seconds {
        return Err(format!(
            "the sides' BENCHMARK.json set different run_seconds ({} and {}); \
             a comparison needs one run length",
            specs[0].run_seconds, specs[1].run_seconds
        ));
    }
    for workload in &workloads {
        for seed in 1..=n {
            // Alternate which side runs first: machine drift over minutes
            // then favours neither side.
            let order: [usize; 2] = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for side in order {
                let (label, checkout) = &sides[side];
                eprintln!("pair {seed}/{n} {workload}: {label}");
                let stdout = run_side(checkout, &specs[side], workload, seed)?;
                let dir = out.join(label).join(workload);
                std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let file = dir.join(format!("{seed}.json"));
                std::fs::write(&file, stdout).map_err(|e| format!("{}: {e}", file.display()))?;
            }
        }
    }
    compare_dirs(&out.join("parent"), &out.join("change"), &specs[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better,
            bound: 0.1,
        }
    }

    fn paired(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.2,
        ];
        let faster: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 0.85).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let higher = spec(true);
        assert_eq!(
            verdict(&parent, &faster, &paired(&parent, &faster), &higher, false).0,
            Verdict::Gain
        );
        assert_eq!(
            verdict(&parent, &slower, &paired(&parent, &slower), &higher, false).0,
            Verdict::Regression
        );
        assert_eq!(
            verdict(&parent, &same, &paired(&parent, &same), &higher, false).0,
            Verdict::WithinBound
        );
        // Lower is better: the 15% drop is a gain.
        assert_eq!(
            verdict(
                &parent,
                &slower,
                &paired(&parent, &slower),
                &spec(false),
                false
            )
            .0,
            Verdict::Gain
        );
        // A parent spread wider than the bound decides nothing.
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let worse: Vec<f64> = noisy.iter().map(|v| v * 0.8).collect();
        let mixed: Vec<f64> = worse.iter().rev().copied().collect();
        assert_eq!(
            verdict(&noisy, &mixed, &paired(&noisy, &mixed), &higher, false).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn gain_needs_nine_tenths_of_the_pairs() {
        let parent = [100.0; 10];
        let mut change = [110.0; 10];
        change[0] = 90.0;
        change[1] = 90.0;
        let (v, won) = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            &spec(true),
            false,
        );
        assert_eq!(won, 8);
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn a_gain_with_more_failures_is_a_regression() {
        let parent = [100.0; 10];
        let change = [120.0; 10];
        let pairs = paired(&parent, &change);
        assert_eq!(
            verdict(&parent, &change, &pairs, &spec(true), false).0,
            Verdict::Gain
        );
        assert_eq!(
            verdict(&parent, &change, &pairs, &spec(true), true).0,
            Verdict::Regression
        );
        // Any rise of the failed share is a regression; none is not.
        let none = [0.0; 10];
        let some = [0.001; 10];
        let failed = failed_share_spec();
        let v = |p: &[f64], c: &[f64]| verdict(p, c, &paired(p, c), &failed, false).0;
        assert_eq!(v(&none, &some), Verdict::Regression);
        assert_eq!(v(&none, &none), Verdict::WithinBound);
        assert_eq!(v(&some, &none), Verdict::Gain);
    }

    #[test]
    fn incorrect_runs_are_refused() {
        let result = |correct: bool, failed: u32| {
            format!(
                "# diagnostics\n{{\"correct\": {correct}, \"attempted\": 10, \"failed\": {failed}, \
                 \"metrics\": {{\"m\": {{\"value\": 2.5, \"unit\": \"u\"}}}}}}\n"
            )
        };
        let ok = parse_result(&result(true, 1)).expect("a correct run parses");
        assert_eq!(ok["m"], 2.5);
        assert_eq!(ok[FAILED_SHARE], 0.1);
        assert!(parse_result(&result(false, 1)).is_err());
        assert!(parse_result(&result(true, 11)).is_err());
    }
}
