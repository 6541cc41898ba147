//! The assertion monitor's performance benchmark: four workloads over the
//! direct scoring path (`omg_scenario::stream_score_scenario`) and the
//! multi-tenant service (`omg-service`), end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run, and a
//! parent-versus-change comparison. The `perf` binary is the command
//! line; README.md documents workloads, metrics and measurement choices.

#![forbid(unsafe_code)]

pub mod compare;
pub mod json;
pub mod measure;
pub mod service;
pub mod stream;

use std::time::{Duration, Instant};

use measure::{median, peak_rss_mb, LatencyHistogram, Layer, Trace};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["stream-tracked", "stream-light", "crowded", "service"];

/// End-to-end metrics (`--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("windows_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The gated tail percentile. Every workload's run counts hundreds of
/// latencies beyond it; the run's diagnostics add each higher percentile
/// that has at least ten beyond it. Those are not gated because too few
/// latencies set them: `crowded` counts about 35 windows beyond its p99,
/// which moved by 18% over four runs of two seeds where p90 moved by 8%.
const LATENCY_TAIL: f64 = 0.9;

/// Per-layer metrics (`--trace 1`) and their units.
pub const PER_LAYER: [(&str, &str); 7] = [
    ("make_sample_ns", "ns"),
    ("prepare_ns", "ns"),
    ("check_ns", "ns"),
    ("uncertainty_ns", "ns"),
    ("push_row_ns", "ns"),
    ("driver_ns", "ns"),
    ("total_ns", "ns"),
];

/// Bounds on each batch of set-up processes; see [`setup_batch`].
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 12;
const SETUP_SECONDS: f64 = 0.75;

/// One benchmark run's parameters.
pub struct Run {
    /// The workload name, one of [`WORKLOADS`].
    pub workload: &'static str,
    /// Generates the inputs.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Run {
    /// Time of the untraced measurement. A traced run spends half of
    /// `seconds` untraced and half replaying the layers.
    pub fn measure_budget(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Outputs checked against the reference, and failed requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// Windows compared with the reference.
    pub windows: u64,
    /// Windows that differed from it.
    pub mismatched: u64,
    /// Offers an open loop saw refused.
    pub refused: u64,
}

impl Checked {
    /// Counts `windows` compared windows, `wrong` of which differed.
    pub fn add(&mut self, windows: usize, wrong: u64) {
        self.windows += windows as u64;
        self.mismatched += wrong;
    }
}

/// What a run measured.
pub struct Outcome {
    /// The verification counts.
    pub checked: Checked,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Diagnostics printed before the result line.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// The end-to-end metrics of an untraced run but `setup_s`; the
    /// latency metrics are whole-run percentiles of `latencies`.
    pub fn end_to_end(
        checked: Checked,
        windows_per_s: f64,
        latencies: &LatencyHistogram,
        notes: Vec<String>,
    ) -> Self {
        Self {
            checked,
            metrics: vec![
                ("windows_per_s", windows_per_s),
                ("latency_p50_ms", latencies.quantile(0.5)),
                ("latency_p90_ms", latencies.quantile(LATENCY_TAIL)),
                ("peak_rss_mb", peak_rss_mb()),
            ],
            notes,
            trace: None,
        }
    }

    /// The per-layer metrics of a traced run: each layer's ns per
    /// replayed window, `total_ns` (the untraced sequential ns per
    /// window), and `driver_ns`, the part of it no layer span covers.
    pub fn traced(checked: Checked, trace: Trace, total_ns: f64, mut notes: Vec<String>) -> Self {
        let mut metrics: Vec<(&'static str, f64)> = Layer::ALL
            .iter()
            .map(|&l| (l.metric(), trace.layer_ns(l)))
            .collect();
        let layers: f64 = metrics.iter().map(|&(_, v)| v).sum();
        metrics.push(("driver_ns", total_ns - layers));
        metrics.push(("total_ns", total_ns));
        notes.push(format!(
            "traced layers sum {layers:.1} ns/window, untraced {total_ns:.1} ns/window \
             ({:+.1}% not covered by a layer span)",
            100.0 * (total_ns - layers) / total_ns
        ));
        Self {
            checked,
            metrics,
            notes,
            trace: Some(trace),
        }
    }
}

/// Runs one workload. An untraced run also reports `setup_s`: the median
/// of the set-up times of two [`setup_batch`]es, one before the workload
/// runs and one after.
///
/// Set-up allocates all of a workload's memory, and on a 2-vCPU cloud VM
/// its speed followed host phases of tens of seconds more closely than
/// the passes did (whose fastest sample a run reports): over ten
/// consecutive `stream-light` runs, the median set-up of five processes
/// started back to back at each run's start read 0.29–0.33 s in five runs
/// and 0.42–0.46 s in the other five, while the rate spread by 0.075
/// (IQR ÷ median). Batches about `--seconds` apart sample two moments of
/// that cycle rather than one.
pub fn run_workload(run: &Run) -> Outcome {
    let before = (!run.trace).then(|| setup_batch(run));
    let mut outcome = match run.workload {
        "stream-tracked" => stream::run(run, stream::tracked),
        "stream-light" => stream::run(run, stream::light),
        "crowded" => stream::run(run, stream::crowded),
        "service" => service::run(run),
        other => panic!("unknown workload {other:?}"),
    };
    if let Some(mut times) = before {
        times.extend(setup_batch(run));
        outcome.metrics.push(("setup_s", median(&times)));
    }
    outcome
}

/// Builds one copy of an untraced run's inputs and program state in this
/// process (world generation, model pretraining, `run_model`, the sets,
/// preparers and services) and returns the seconds it took. `perf --setup`
/// prints it.
pub fn setup_seconds(workload: &str, seed: u64) -> f64 {
    fn timed<T>(build: impl FnOnce() -> T) -> f64 {
        let t0 = Instant::now();
        let state = build();
        let seconds = t0.elapsed().as_secs_f64();
        drop(state);
        seconds
    }
    match workload {
        "stream-tracked" => timed(|| stream::tracked(seed)),
        "stream-light" => timed(|| stream::light(seed)),
        "crowded" => timed(|| stream::crowded(seed)),
        "service" => timed(|| service::setup(seed, false)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// [`setup_seconds`] in fresh processes (`perf --setup`), as a user pays
/// set-up: at least `SETUP_MIN` of them and until their set-ups add up to
/// `SETUP_SECONDS`, at most `SETUP_MAX`. They run one at a time while the
/// run waits, and none while the run holds its own copy of the state, so
/// peak memory holds one copy.
///
/// # Panics
///
/// Panics if a set-up process fails or prints no time.
pub fn setup_batch(run: &Run) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the path of this program");
    let mut times = Vec::new();
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let out = std::process::Command::new(&exe)
            .args(["--setup", run.workload, &run.seed.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("start a set-up process");
        assert!(out.status.success(), "set-up process: {}", out.status);
        let seconds = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .expect("set-up seconds");
        times.push(seconds);
    }
    times
}

/// Splits `--flag value` pairs; repeated flags keep every value.
pub fn flag_values(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}
