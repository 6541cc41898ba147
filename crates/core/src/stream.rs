//! Incremental streaming monitoring with shared window preparation.
//!
//! The paper's §7 argues assertions are cheap enough to "be run … over
//! every model invocation"; keeping that true on a live stream means the
//! hot path must do O(window) work per arriving sample, never
//! re-derivation over the whole history. Two costs dominate in practice:
//!
//! 1. **Window preparation.** Several assertions over the same window
//!    often need the same expensive derivation (the video assertions all
//!    need the tracked window; an ECG set needs the segmented prediction
//!    run). Self-contained assertions each re-derive it, multiplying the
//!    dominant cost by the assertion count. The [`Prepare`] trait names
//!    that derivation once; [`crate::AssertionSet::check_all_prepared`]
//!    shares one artifact across every assertion in the set, and
//!    [`crate::Monitor::with_preparer`] runs it once per sample.
//! 2. **Window construction.** Describing a window never requires
//!    copying its items. Every caller holds its stream (or, in a
//!    service session, the live suffix of it) as a slice and borrows
//!    each center's clamped window `&items[lo..hi]` in place; the
//!    scenario drivers chunk the centers across the pool with
//!    [`score_rows_chunked`]. Building a window clones no item and
//!    allocates nothing.
//!
//! # Batch-equivalence guarantee
//!
//! For pure assertions and a deterministic preparer, every path through
//! this module is **bit-for-bit equal** to the batch reference
//! ([`crate::AssertionSet::check_all`] per sample, in order) at any
//! thread count. The engine's property tests enforce this at 1/2/8
//! threads across all deployed scenarios.

use crate::runtime::ThreadPool;
use crate::SeverityMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An expensive per-sample derivation shared by every assertion in a set.
///
/// `prepare` must be a deterministic pure function of the sample: the
/// streaming engine relies on `check_all_prepared(s, &prepare(s))`
/// equalling `check_all(s)` bit-for-bit, and may prepare the same sample
/// on different threads in different runs.
pub trait Prepare<S>: Send + Sync {
    /// The artifact `prepare` derives (a tracked window, segmented
    /// beats, projected boxes, …).
    type Prepared: Send;

    /// Derives the artifact from one sample.
    fn prepare(&self, sample: &S) -> Self::Prepared;
}

/// Boxed preparers prepare by delegation, so a `Box<dyn Prepare<S,
/// Prepared = P>>` (how scenario harnesses hold their preparer) can be
/// passed anywhere a concrete preparer is expected — including inside a
/// [`CountingPrepare`] probe.
impl<S, Pr> Prepare<S> for Box<Pr>
where
    Pr: Prepare<S> + ?Sized,
{
    type Prepared = Pr::Prepared;

    fn prepare(&self, sample: &S) -> Self::Prepared {
        (**self).prepare(sample)
    }
}

/// The trivial preparation: no shared artifact. Lets any plain
/// `AssertionSet<S>` run on the streaming engine unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPrep;

impl<S> Prepare<S> for NoPrep {
    type Prepared = ();

    fn prepare(&self, _sample: &S) {}
}

/// A closure-backed [`Prepare`] — the `FnAssertion` of preparers.
///
/// # Example
///
/// ```
/// use omg_core::stream::{FnPrepare, Prepare};
///
/// let sum = FnPrepare::new(|xs: &Vec<i32>| xs.iter().sum::<i32>());
/// assert_eq!(sum.prepare(&vec![1, 2, 3]), 6);
/// ```
pub struct FnPrepare<F>(F);

impl<F> FnPrepare<F> {
    /// Wraps a closure as a preparer.
    pub fn new(f: F) -> Self {
        Self(f)
    }
}

impl<S, P, F> Prepare<S> for FnPrepare<F>
where
    F: Fn(&S) -> P + Send + Sync,
    P: Send,
{
    type Prepared = P;

    fn prepare(&self, sample: &S) -> P {
        (self.0)(sample)
    }
}

/// A probe that counts how many times an inner preparer runs — the
/// instrument behind the engine's prepare-once tests ("tracking runs
/// exactly once per window").
pub struct CountingPrepare<Pr> {
    inner: Pr,
    count: Arc<AtomicUsize>,
}

impl<Pr> CountingPrepare<Pr> {
    /// Wraps a preparer; `counter` is incremented on every `prepare`,
    /// so the caller reads the count from the counter it passed in.
    pub fn new(inner: Pr, counter: Arc<AtomicUsize>) -> Self {
        Self {
            inner,
            count: counter,
        }
    }
}

impl<S, Pr: Prepare<S>> Prepare<S> for CountingPrepare<Pr> {
    type Prepared = Pr::Prepared;

    fn prepare(&self, sample: &S) -> Pr::Prepared {
        self.count.fetch_add(1, Ordering::SeqCst);
        self.inner.prepare(sample)
    }
}

/// Fills `n` severity rows (plus one auxiliary `f64` per row) across the
/// pool's workers, merging into one contiguous [`SeverityMatrix`] and
/// auxiliary vector **in index order**.
///
/// `fill(i, row)` must refill `row` with index `i`'s dense severity
/// values and return its auxiliary value (an uncertainty, typically);
/// each worker reuses one row buffer across its whole chunk, so the
/// single-thread path runs allocation-free over a flat buffer and the
/// parallel path merges chunk-local matrices by disjoint range-copy
/// ([`SeverityMatrix::append`]) — no `Vec<Vec<_>>` stitching. For a pure
/// `fill` the result is bit-for-bit identical at any thread count.
///
/// This is the one chunked scoring driver: [`crate::Monitor::process_batch`]
/// fills sample `i`'s row, and the scenario drivers fill center `i`'s
/// row from its clamped window, borrowed in place from the item slice.
pub fn score_rows_chunked<F>(
    n: usize,
    width: usize,
    pool: &ThreadPool,
    fill: F,
) -> (SeverityMatrix, Vec<f64>)
where
    F: Fn(usize, &mut Vec<f64>) -> f64 + Sync,
{
    let fill_range = |lo: usize, hi: usize| {
        let mut matrix = SeverityMatrix::with_capacity(hi - lo, width);
        let mut aux = Vec::with_capacity(hi - lo);
        let mut row = Vec::with_capacity(width);
        for i in lo..hi {
            aux.push(fill(i, &mut row));
            matrix.push_row(&row);
        }
        (matrix, aux)
    };
    let threads = pool.threads();
    if threads == 1 || n < 2 {
        return fill_range(0, n);
    }
    let chunk = n.div_ceil(threads * 4).max(1);
    let parts = pool.map_indexed(n.div_ceil(chunk), |k| {
        fill_range(k * chunk, ((k + 1) * chunk).min(n))
    });
    let mut matrix = SeverityMatrix::with_capacity(n, width);
    let mut aux = Vec::with_capacity(n);
    for (part_matrix, part_aux) in &parts {
        matrix.append(part_matrix);
        aux.extend_from_slice(part_aux);
    }
    (matrix, aux)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AssertionId, AssertionSet, Monitor, SampleReport, Severity};

    /// A set whose assertions share a (counted) "expensive" derivation:
    /// the sum of the sample.
    fn prepared_set() -> AssertionSet<Vec<i64>, i64> {
        let mut set: AssertionSet<Vec<i64>, i64> = AssertionSet::new();
        set.add_prepared(
            crate::FnAssertion::new("negative-sum", |xs: &Vec<i64>| {
                Severity::from_bool(xs.iter().sum::<i64>() < 0)
            }),
            |_, &sum: &i64| Severity::from_bool(sum < 0),
        );
        set.add_prepared(
            crate::FnAssertion::new("huge-sum", |xs: &Vec<i64>| {
                Severity::new(xs.iter().sum::<i64>().unsigned_abs() as f64 / 100.0)
            }),
            |_, &sum: &i64| Severity::new(sum.unsigned_abs() as f64 / 100.0),
        );
        // A prep-oblivious assertion mixes in via the fallback path.
        set.add_fn("empty", |xs: &Vec<i64>| Severity::from_bool(xs.is_empty()));
        set
    }

    fn plain_set() -> AssertionSet<Vec<i64>> {
        let mut set = AssertionSet::new();
        set.add_fn("negative-sum", |xs: &Vec<i64>| {
            Severity::from_bool(xs.iter().sum::<i64>() < 0)
        });
        set.add_fn("huge-sum", |xs: &Vec<i64>| {
            Severity::new(xs.iter().sum::<i64>().unsigned_abs() as f64 / 100.0)
        });
        set.add_fn("empty", |xs: &Vec<i64>| Severity::from_bool(xs.is_empty()));
        set
    }

    fn samples() -> Vec<Vec<i64>> {
        vec![vec![-5, 2], vec![], vec![300, 7], vec![1], vec![-900]]
    }

    /// The batch reference: the clamped window of every center, built
    /// from the full sequence — what the chunked driver's borrowed
    /// windows must reproduce.
    fn batch_windows<T: Clone>(half: usize, items: &[T]) -> Vec<Vec<T>> {
        let n = items.len();
        (0..n)
            .map(|c| items[c.saturating_sub(half)..(c + half + 1).min(n)].to_vec())
            .collect()
    }

    #[test]
    fn check_all_prepared_matches_check_all() {
        let set = prepared_set();
        for s in samples() {
            let prep: i64 = s.iter().sum();
            assert_eq!(set.check_all_prepared(&s, &prep), set.check_all(&s));
        }
    }

    /// The sum preparer behind a counting probe.
    fn counted_sum(
        counter: &Arc<AtomicUsize>,
    ) -> CountingPrepare<impl Prepare<Vec<i64>, Prepared = i64>> {
        CountingPrepare::new(
            FnPrepare::new(|xs: &Vec<i64>| xs.iter().sum::<i64>()),
            counter.clone(),
        )
    }

    #[test]
    fn stream_monitor_matches_batch_monitor() {
        let samples = samples();
        let mut reference = Monitor::with_assertions(plain_set());
        let want: Vec<_> = samples.iter().map(|s| reference.process(s)).collect();

        let counter = Arc::new(AtomicUsize::new(0));
        let mut stream = Monitor::with_preparer(prepared_set(), counted_sum(&counter));
        let got: Vec<_> = samples.iter().map(|s| stream.process(s)).collect();
        assert_eq!(got, want);
        assert_eq!(stream.db(), reference.db());
        assert_eq!(counter.load(Ordering::SeqCst), samples.len());

        for threads in [1, 2, 8] {
            let counter = Arc::new(AtomicUsize::new(0));
            let mut batch = Monitor::with_preparer(prepared_set(), counted_sum(&counter));
            let reports = batch.process_batch(&samples, &ThreadPool::new(threads));
            assert_eq!(reports, want, "threads={threads}");
            assert_eq!(batch.db(), reference.db(), "threads={threads}");
            assert_eq!(counter.load(Ordering::SeqCst), samples.len());
        }
    }

    #[test]
    fn counting_probe_sees_one_preparation_per_sample() {
        let counter = Arc::new(AtomicUsize::new(0));
        let probe = counted_sum(&counter);
        let mut m = Monitor::with_preparer(prepared_set(), probe);
        let samples = samples();
        m.process_batch(&samples, &ThreadPool::new(4));
        m.process(&samples[0]);
        assert_eq!(counter.load(Ordering::SeqCst), samples.len() + 1);
    }

    fn summing_monitor() -> Monitor<Vec<i64>, i64> {
        Monitor::with_preparer(
            prepared_set(),
            FnPrepare::new(|xs: &Vec<i64>| xs.iter().sum::<i64>()),
        )
    }

    #[test]
    fn stream_monitor_fires_actions_in_sample_order() {
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let fired2 = fired.clone();
        let mut m = summing_monitor();
        m.on_severity(Severity::new(1.5), move |_, r: &SampleReport| {
            fired2.lock().unwrap().push(r.sample);
        });
        m.process_batch(&samples(), &ThreadPool::new(4));
        assert_eq!(*fired.lock().unwrap(), vec![2, 4]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn abstain_threshold_rejected() {
        summing_monitor().on_severity(Severity::ABSTAIN, |_, _| {});
    }

    #[test]
    fn retention_caps_resident_db_without_changing_reports() {
        let mut unbounded = summing_monitor();
        let mut capped = summing_monitor().with_retention(2);
        let stream: Vec<Vec<i64>> = (0..20).map(|i| vec![i - 10, 3]).collect();
        for sample in &stream {
            assert_eq!(capped.process(sample), unbounded.process(sample));
        }
        assert!(
            capped.db().len() <= 2 * capped.assertions().len(),
            "resident rows exceed the cap: {}",
            capped.db().len()
        );
        assert_eq!(capped.db().evicted_before(), 18);
        // Lifetime statistics still cover the whole stream.
        assert_eq!(capped.db().lifetime_len(), unbounded.db().len());
        assert_eq!(
            capped.db().lifetime_fire_counts(),
            unbounded.db().fire_counts()
        );
        // The batch path applies the same cap.
        let mut batch = summing_monitor().with_retention(2);
        batch.process_batch(&stream, &ThreadPool::new(4));
        assert_eq!(batch.db().evicted_before(), 18);
        assert_eq!(batch.db().lifetime_len(), unbounded.db().len());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_retention_rejected() {
        let _ = summing_monitor().with_retention(0);
    }

    #[test]
    fn no_prep_runs_plain_sets_on_the_stream_engine() {
        let mut m = Monitor::with_preparer(plain_set(), NoPrep);
        let r = m.process(&vec![-3]);
        assert!(r.fired(AssertionId(0)));
        assert!(format!("{m:?}").contains("negative-sum"));
    }

    /// Clamped window sums of `data` through the chunked driver, the shape
    /// of the scenario stream driver: row = window sum, aux = window length.
    fn window_sums(
        data: &[i64],
        half: usize,
        pool: &ThreadPool,
        fills: &AtomicUsize,
    ) -> (SeverityMatrix, Vec<f64>) {
        let n = data.len();
        score_rows_chunked(n, 1, pool, |c, row| {
            fills.fetch_add(1, Ordering::Relaxed);
            let window = &data[c.saturating_sub(half)..(c + half + 1).min(n)];
            row.clear();
            row.push(window.iter().sum::<i64>() as f64);
            window.len() as f64
        })
    }

    /// Borrowing each center's clamped window from the shared slice scores
    /// every center exactly once at any thread count, bit-for-bit equal to
    /// the batch windows.
    #[test]
    fn chunked_stream_scoring_matches_batch_windows() {
        let data: Vec<i64> = (0..97).map(|i| (i * 31 % 17) - 8).collect();
        for half in [0usize, 1, 2, 5] {
            let mut want = SeverityMatrix::with_capacity(data.len(), 1);
            let mut want_len = Vec::new();
            for items in batch_windows(half, &data) {
                want.push_row(&[items.iter().sum::<i64>() as f64]);
                want_len.push(items.len() as f64);
            }
            for threads in [1, 2, 8] {
                let fills = AtomicUsize::new(0);
                let got = window_sums(&data, half, &ThreadPool::new(threads), &fills);
                assert_eq!(
                    got,
                    (want.clone(), want_len.clone()),
                    "half={half} threads={threads}"
                );
                assert_eq!(
                    fills.load(Ordering::Relaxed),
                    data.len(),
                    "one fill per center"
                );
            }
        }
        let fills = AtomicUsize::new(0);
        let (matrix, aux) = window_sums(&[], 2, &ThreadPool::new(4), &fills);
        assert!(matrix.is_empty() && aux.is_empty());
        assert_eq!(fills.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn score_rows_chunked_is_thread_count_invariant() {
        let fill = |i: usize, row: &mut Vec<f64>| {
            row.clear();
            row.extend([(i % 7) as f64, (i * 3 % 5) as f64]);
            i as f64 * 0.5
        };
        let want = score_rows_chunked(137, 2, &ThreadPool::sequential(), fill);
        assert_eq!(want.0.len(), 137);
        assert_eq!(want.1.len(), 137);
        for threads in [2, 3, 8] {
            assert_eq!(
                score_rows_chunked(137, 2, &ThreadPool::new(threads), fill),
                want,
                "threads={threads}"
            );
        }
        let (empty, unc) = score_rows_chunked(0, 2, &ThreadPool::new(4), fill);
        assert!(empty.is_empty() && unc.is_empty());
    }

    /// The zero-respawn probe of the persistent runtime: a streaming hot
    /// loop that re-enters the chunked driver repeatedly must never
    /// create a thread beyond the pool's initial workers.
    #[test]
    fn repeated_stream_scoring_never_respawns_workers() {
        let data: Vec<i64> = (0..500).map(|i| (i % 13) as i64 - 6).collect();
        let pool = ThreadPool::new(4);
        assert_eq!(pool.spawned_workers(), 3, "workers spawn at construction");
        let fills = AtomicUsize::new(0);
        let want = window_sums(&data, 2, &ThreadPool::sequential(), &fills);
        for _ in 0..25 {
            assert_eq!(window_sums(&data, 2, &pool, &fills), want);
        }
        assert_eq!(
            pool.spawned_workers(),
            3,
            "stream scoring must submit jobs to parked workers, not spawn"
        );
    }
}
