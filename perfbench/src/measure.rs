//! Clocks, statistics and the in-memory span trace.

use std::time::{Duration, Instant};

use omg_scenario::Scores;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fast end of a run's samples of a cost (pass times, busy time per
/// window of service rounds, layer times per replay round): the smallest.
///
/// Every sample repeats the same work, and other tenants of a shared
/// host only ever slow a sample down, in bursts and phases of seconds.
/// On a 2-vCPU cloud VM, over six runs of one input, the fastest
/// `crowded` pass varied by 1.5% (IQR over median) where the median pass
/// varied by 7.4%. The smallest sample also beats a low percentile when
/// the host is slow for most of a run: over ten seeds of `stream-light`
/// the rate from each scenario's fastest pass spread by 0.10 where the
/// rate from its 5th-percentile pass spread by 0.17. Comparisons take
/// medians over runs on top.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn best(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("best of no values")
}

/// The three quartile cut points of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The nearest-rank `q`-quantile of an ascending-sorted slice.
pub fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latencies in buckets whose edges grow by 0.1% from 10 ns to about
/// 100 s (values outside count in the end buckets): whole-run percentiles
/// of sub-microsecond window scores and of multi-millisecond service
/// rows alike, to 0.1%, in constant memory, so the benchmark's own
/// bookkeeping does not grow with the throughput it measures.
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    const MIN_NS: f64 = 10.0;
    const GROWTH: f64 = 1.001;
    const BUCKETS: usize = 23_040;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }

    /// Counts one latency.
    pub fn add(&mut self, latency: Duration) {
        let ratio = latency.as_nanos() as f64 / Self::MIN_NS;
        let bucket = if ratio <= 1.0 {
            0
        } else {
            (ratio.ln() / Self::GROWTH.ln()) as usize + 1
        };
        self.counts[bucket.min(Self::BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The nearest-rank `q`-quantile in ms: the geometric middle of the
    /// bucket holding it.
    ///
    /// # Panics
    ///
    /// Panics if nothing was counted.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.is_empty(), "quantile of no latencies");
        let rank = self.rank(q);
        let mut seen = 0;
        let bucket = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("rank is at most the total count");
        Self::MIN_NS * Self::GROWTH.powf(bucket as f64 - 0.5) / 1e6
    }

    /// The nearest rank of the `q`-quantile, 1-based.
    fn rank(&self, q: f64) -> u64 {
        ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1))
    }

    /// Latencies ranked above the nearest-rank `q`-quantile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total.saturating_sub(self.rank(q))
    }

    /// The median and each of p90, p99, p99.9 and p99.99 that has at
    /// least ten latencies beyond it, with the count beyond each.
    pub fn report(&self) -> String {
        let parts: Vec<String> = [
            (0.5, "p50"),
            (0.9, "p90"),
            (0.99, "p99"),
            (0.999, "p99.9"),
            (0.9999, "p99.99"),
        ]
        .into_iter()
        .filter(|&(q, _)| q == 0.5 || self.beyond(q) >= 10)
        .map(|(q, label)| {
            format!(
                "{label} {:.4} ms ({} beyond)",
                self.quantile(q),
                self.beyond(q)
            )
        })
        .collect();
        format!("over {} latencies: {}", self.total, parts.join(", "))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// How many positions of `got` differ from `want`, comparing every
/// severity and uncertainty bit for bit. A length mismatch counts every
/// expected position as wrong.
pub fn mismatches(got: &Scores, want: &Scores) -> u64 {
    let n = want.1.len();
    if got.0.len() != n || got.1.len() != n || got.0.width() != want.0.width() {
        return n.max(1) as u64;
    }
    (0..n)
        .filter(|&i| !row_equal(got.0.row(i), got.1[i], want.0.row(i), want.1[i]))
        .count() as u64
}

/// Bitwise equality of one severity row and uncertainty.
pub fn row_equal(got: &[f64], got_unc: f64, want: &[f64], want_unc: f64) -> bool {
    got_unc.to_bits() == want_unc.to_bits()
        && got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The layers a traced run times from outside, around their public calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Scenario::make_sample`, plus dropping the samples.
    MakeSample,
    /// `Prepare::prepare`, plus dropping the artifacts.
    Prepare,
    /// `AssertionSet::check_all_prepared_values`.
    Check,
    /// `Scenario::uncertainty`.
    Uncertainty,
    /// `SeverityMatrix::push_row`.
    PushRow,
}

impl Layer {
    /// Every layer, in call order.
    pub const ALL: [Layer; 5] = [
        Layer::MakeSample,
        Layer::Prepare,
        Layer::Check,
        Layer::Uncertainty,
        Layer::PushRow,
    ];

    /// The span and metric stem of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::MakeSample => "make_sample",
            Layer::Prepare => "prepare",
            Layer::Check => "check",
            Layer::Uncertainty => "uncertainty",
            Layer::PushRow => "push_row",
        }
    }

    /// The per-layer metric: mean ns per window in the layer.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::MakeSample => "make_sample_ns",
            Layer::Prepare => "prepare_ns",
            Layer::Check => "check_ns",
            Layer::Uncertainty => "uncertainty_ns",
            Layer::PushRow => "push_row_ns",
        }
    }
}

/// One recorded span: a named interval, the span that caused it, and the
/// windows it covered.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: a layer name, `pass`, or a service call.
    pub name: &'static str,
    /// The scenario whose windows it covered.
    pub scenario: &'static str,
    /// Index of the parent span in the trace, `None` for a root.
    pub parent: Option<usize>,
    /// Start, relative to the trace origin.
    pub start: Duration,
    /// End, relative to the trace origin.
    pub end: Duration,
    /// Windows the span covered.
    pub windows: usize,
}

/// Spans kept for the span file: those of the first replay round (and of
/// the service loop before it), up to this many.
const MAX_SPANS: usize = 20_000;

/// Spans kept in memory for the span file, plus the per-layer times the
/// per-layer metrics are computed from.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    first_round: bool,
    /// Time per layer in the current replay round.
    round_time: [Duration; 5],
    /// Windows replayed in the current round.
    round_windows: u64,
    /// Per completed round, ns per window in each layer.
    rounds: Vec<[f64; 5]>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            first_round: true,
            round_time: [Duration::ZERO; 5],
            round_windows: 0,
            rounds: Vec::new(),
        }
    }

    fn keep_spans(&self) -> bool {
        self.first_round && self.spans.len() < MAX_SPANS
    }

    /// Records a span from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        scenario: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        windows: usize,
    ) {
        if self.keep_spans() {
            self.spans.push(Span {
                name,
                scenario,
                parent,
                start: start - self.origin,
                end: end - self.origin,
                windows,
            });
        }
    }

    /// Opens a root span at `start` whose end is set by [`Trace::close`];
    /// returns its index (or `None` when spans are not kept).
    pub fn open(
        &mut self,
        name: &'static str,
        scenario: &'static str,
        start: Instant,
        windows: usize,
    ) -> Option<usize> {
        self.keep_spans().then(|| {
            self.spans.push(Span {
                name,
                scenario,
                parent: None,
                start: start - self.origin,
                end: start - self.origin,
                windows,
            });
            self.spans.len() - 1
        })
    }

    /// Ends an opened span now.
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Records one layer span from `start` to now under `parent`, adds it
    /// to the layer's total, and returns now.
    pub fn layer(
        &mut self,
        layer: Layer,
        scenario: &'static str,
        parent: Option<usize>,
        start: Instant,
        windows: usize,
    ) -> Instant {
        let now = Instant::now();
        self.record(layer.name(), scenario, parent, start, now, windows);
        self.round_time[layer as usize] += now - start;
        now
    }

    /// Counts `windows` windows replayed in the current round.
    pub fn add_windows(&mut self, windows: usize) {
        self.round_windows += windows as u64;
    }

    /// Closes a replay round: stores its ns per window in each layer and
    /// stops keeping spans.
    pub fn end_round(&mut self) {
        let n = self.round_windows.max(1) as f64;
        self.rounds
            .push(self.round_time.map(|t| t.as_nanos() as f64 / n));
        self.round_time = [Duration::ZERO; 5];
        self.round_windows = 0;
        self.first_round = false;
    }

    /// ns per window in `layer` in its quietest replay round (see
    /// [`best`]).
    ///
    /// # Panics
    ///
    /// Panics if no round has ended.
    pub fn layer_ns(&self, layer: Layer) -> f64 {
        let per_round: Vec<f64> = self.rounds.iter().map(|r| r[layer as usize]).collect();
        best(&per_round)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"scenario\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"windows\": {}}}{comma}",
                s.name,
                s.scenario,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.windows
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            [2.75, 5.5, 8.25]
        );
        // statistics.quantiles([3, 1], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(sorted_quantile(&sorted, 0.5), 50.0);
        assert_eq!(sorted_quantile(&sorted, 0.99), 99.0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_tenth_of_a_percent() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.add(Duration::from_micros(us));
        }
        for (q, want_ms) in [(0.5, 0.5), (0.99, 0.99), (0.001, 0.001)] {
            let got = h.quantile(q);
            assert!((got / want_ms - 1.0).abs() < 1e-3, "q {q}: {got} ms");
        }
        assert_eq!(h.beyond(0.99), 10);
        assert!(h.report().contains("p99 ") && !h.report().contains("p99.9 "));
        h.add(Duration::ZERO);
        h.add(Duration::from_secs(1_000));
        assert!(h.report().starts_with("over 1002 latencies"));
    }
}
