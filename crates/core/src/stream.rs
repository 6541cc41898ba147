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
//!    copying its items. Callers that hold the stream as a slice borrow
//!    each center's clamped window `&items[lo..hi]` in place, chunked
//!    across the pool by [`score_rows_chunked`]: building a window
//!    clones no item and allocates nothing. Callers that receive
//!    *owned* items one at a time use [`SlidingWindows`], which moves
//!    each item once into a contiguous mirror buffer and emits windows
//!    as borrowed slices of it, in O(window) memory.
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

/// One clamped window as a span of stream positions: `[start, end)`,
/// centered on stream position `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WindowSpan {
    start: usize,
    end: usize,
    index: usize,
}

impl WindowSpan {
    /// Index of the center *within* the window (`index - start`).
    fn center(&self) -> usize {
        self.index - self.start
    }
}

/// The clamped-window arithmetic behind [`SlidingWindows`]: configured
/// with `half` positions of context on each side of a center, it counts
/// stream positions one [`SlidingSpans::push`] at a time and emits, for
/// every position `c`, the span `[max(0, c - half), min(c + half + 1,
/// n))`, in center order with `half` positions of latency.
// Deliberately not `Copy`: `finish(self)` must actually consume the
// slider, or pushing a second stream into stale state would compile.
#[derive(Debug, Clone)]
struct SlidingSpans {
    half: usize,
    /// Total positions pushed so far.
    pushed: usize,
    /// Next center (stream position) to emit.
    next_center: usize,
}

impl SlidingSpans {
    fn new(half: usize) -> Self {
        Self {
            half,
            pushed: 0,
            next_center: 0,
        }
    }

    /// The span for center `c`, clamped to the positions pushed so far.
    fn span_for(&self, c: usize) -> WindowSpan {
        WindowSpan {
            start: c.saturating_sub(self.half),
            end: (c + self.half + 1).min(self.pushed),
            index: c,
        }
    }

    /// Counts the next stream position; returns the newly completed span,
    /// if any (the window centered `half` positions back, once its
    /// lookahead is in).
    fn push(&mut self) -> Option<WindowSpan> {
        self.pushed += 1;
        if self.pushed > self.next_center + self.half {
            let s = self.span_for(self.next_center);
            self.next_center += 1;
            Some(s)
        } else {
            None
        }
    }

    /// The spans for the remaining centers, clamped at the right edge.
    fn finish(self) -> impl Iterator<Item = WindowSpan> {
        (self.next_center..self.pushed).map(move |c| self.span_for(c))
    }
}

/// One window emitted by [`SlidingWindows`]: a **borrowed** slice of the
/// slider's storage, which of its items is the center, and the center's
/// global stream index. The borrow ends at the next `push` — score the
/// window before ingesting more of the stream (which is the only order a
/// stream can arrive in anyway).
#[derive(Debug, PartialEq)]
pub struct Window<'a, T> {
    /// The window's items, in stream order.
    pub items: &'a [T],
    /// Index within `items` of the center — the item the window is about.
    pub center: usize,
    /// The center's index in the overall stream.
    pub index: usize,
}

/// An incremental builder of clamped sliding windows over a stream of
/// *owned* items — for callers that genuinely receive items one at a
/// time and retain no stream slice of their own. Callers that do hold
/// the stream as a slice borrow each window from it directly instead.
///
/// Items land in a contiguous mirror buffer (each item is moved in
/// exactly once and never cloned — there is no `T: Clone` bound), so
/// every emitted [`Window`] is a borrowed `&[T]` slice. The buffer
/// holds O(window) live items; dead prefixes are compacted away in
/// amortized O(1) per push. For every stream position `c`, in order,
/// it emits the window `[max(0, c - half), min(c + half + 1, n))`, with
/// `half` items of latency.
///
/// # Example
///
/// ```
/// use omg_core::stream::SlidingWindows;
///
/// let mut sw = SlidingWindows::new(1);
/// assert!(sw.push('a').is_none()); // center 0 still needs lookahead
/// let w = sw.push('b').expect("center 0 complete");
/// assert_eq!((w.items, w.center, w.index), (['a', 'b'].as_slice(), 0, 0));
/// let mut tail = sw.finish(); // clamped windows for the last centers
/// let w = tail.next().expect("one tail center");
/// assert_eq!((w.items, w.center, w.index), (['a', 'b'].as_slice(), 1, 1));
/// assert!(tail.next().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindows<T> {
    spans: SlidingSpans,
    /// Contiguous storage for the live suffix of the stream.
    buf: Vec<T>,
    /// Stream index of `buf[0]`.
    base: usize,
}

impl<T> SlidingWindows<T> {
    /// Creates a builder with `half` items of context on each side.
    pub fn new(half: usize) -> Self {
        Self {
            spans: SlidingSpans::new(half),
            buf: Vec::with_capacity(2 * (2 * half + 1)),
            base: 0,
        }
    }

    /// The context radius.
    pub fn half(&self) -> usize {
        self.spans.half
    }

    /// Total items pushed so far.
    pub fn pushed(&self) -> usize {
        self.spans.pushed
    }

    /// Drops items no current or future window can reach, once enough
    /// have died to amortize the move of the live suffix to the front.
    fn compact(&mut self) {
        let half = self.spans.half;
        let dead = self
            .spans
            .next_center
            .saturating_sub(half)
            .saturating_sub(self.base);
        let window = 2 * half + 1;
        if dead >= window {
            // `drain` drops the dead prefix and *moves* the live suffix
            // down — no clones. Each compaction moves at most window + 1
            // items after at least `window` pushes: amortized O(1).
            self.buf.drain(..dead);
            self.base += dead;
        }
    }

    /// Ingests the next item; returns the newly completed window, if any
    /// (the window centered `half` items back, once its lookahead is in),
    /// borrowed from the slider's storage.
    pub fn push(&mut self, item: T) -> Option<Window<'_, T>> {
        self.compact();
        self.buf.push(item);
        let span = self.spans.push()?;
        Some(borrow_window(&self.buf, self.base, span))
    }

    /// Flushes the end of the stream: the windows for the remaining
    /// centers, clamped at the right edge (mirroring the left-edge clamp
    /// the first windows get), as a lending iterator over the buffered
    /// tail. Consumes the slider — a finished stream is over, and a
    /// fresh stream needs a fresh slider, so a stale ring mixing two
    /// streams' items is unrepresentable (it used to be a silent bug):
    ///
    /// ```compile_fail
    /// use omg_core::stream::SlidingWindows;
    ///
    /// let mut sw = SlidingWindows::new(1);
    /// sw.push('a');
    /// let _ = sw.finish();
    /// sw.push('b'); // error[E0382]: `finish` consumed the slider
    /// ```
    pub fn finish(self) -> TailWindows<T> {
        let tail: Vec<WindowSpan> = self.spans.finish().collect();
        TailWindows {
            buf: self.buf,
            base: self.base,
            tail: tail.into_iter(),
        }
    }
}

/// The right-edge-clamped tail windows of a finished [`SlidingWindows`]:
/// a lending iterator (each [`TailWindows::next`] borrows the owned
/// buffer), since the tail windows overlap the same storage.
#[derive(Debug)]
pub struct TailWindows<T> {
    buf: Vec<T>,
    base: usize,
    tail: std::vec::IntoIter<WindowSpan>,
}

impl<T> TailWindows<T> {
    /// The next tail window, borrowed from the finished slider's buffer.
    #[allow(clippy::should_implement_trait)] // lending: Item borrows self
    pub fn next(&mut self) -> Option<Window<'_, T>> {
        let span = self.tail.next()?;
        Some(borrow_window(&self.buf, self.base, span))
    }

    /// Number of tail windows remaining.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// Whether all tail windows have been yielded.
    pub fn is_empty(&self) -> bool {
        self.tail.len() == 0
    }
}

/// Borrows the window `span` describes from a mirror buffer whose first
/// item is stream position `base`.
fn borrow_window<T>(buf: &[T], base: usize, span: WindowSpan) -> Window<'_, T> {
    debug_assert!(span.start >= base, "window start was compacted away");
    // PANIC: the slider compacts only positions no emitted span can
    // still reference, so span bounds stay inside the mirror buffer.
    Window {
        items: &buf[span.start - base..span.end - base],
        center: span.center(),
        index: span.index,
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
    let threads = pool.fanout();
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

    /// Drains a `SlidingWindows` run over `items`, materializing every
    /// emitted borrowed window as `(owned items, center, index)`.
    fn collect_windows<T: Clone>(half: usize, items: &[T]) -> Vec<(Vec<T>, usize, usize)> {
        let mut sw = SlidingWindows::new(half);
        let mut got = Vec::new();
        for x in items {
            if let Some(w) = sw.push(x.clone()) {
                got.push((w.items.to_vec(), w.center, w.index));
            }
        }
        let mut tail = sw.finish();
        while let Some(w) = tail.next() {
            got.push((w.items.to_vec(), w.center, w.index));
        }
        got
    }

    /// The batch reference: the clamped window of every center, built
    /// from the full sequence — what both sliders must reproduce.
    fn batch_windows<T: Clone>(half: usize, items: &[T]) -> Vec<(Vec<T>, usize, usize)> {
        let n = items.len();
        (0..n)
            .map(|c| {
                let lo = c.saturating_sub(half);
                let hi = (c + half + 1).min(n);
                (items[lo..hi].to_vec(), c - lo, c)
            })
            .collect()
    }

    #[test]
    fn sliding_windows_match_batch_windows() {
        // Deterministic clamped-edge coverage: half = 0 (degenerate
        // windows), n = 0/1, and every n < 2 * half + 1 (streams shorter
        // than one full window, where both edges clamp at once).
        for half in [0usize, 1, 2, 3] {
            for n in [0usize, 1, 2, 5, 9] {
                let items: Vec<usize> = (0..n).collect();
                assert_eq!(
                    collect_windows(half, &items),
                    batch_windows(half, &items),
                    "half={half} n={n}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The borrowed-window slider equals the owned batch-window
        /// semantics for arbitrary (half, n) — including the clamped
        /// edges the ranges force (half = 0, n < 2 * half + 1).
        #[test]
        fn sliding_windows_equal_batch_windows_prop(half in 0usize..5, n in 0usize..48) {
            let items: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 23 - 11).collect();
            proptest::prop_assert_eq!(collect_windows(half, &items), batch_windows(half, &items));
        }

        /// The storage-free span slider describes exactly the same
        /// windows, as index ranges.
        #[test]
        fn sliding_spans_equal_batch_windows_prop(half in 0usize..5, n in 0usize..48) {
            let items: Vec<u32> = (0..n as u32).collect();
            let mut sp = SlidingSpans::new(half);
            let mut got = Vec::new();
            for _ in 0..n {
                if let Some(s) = sp.push() {
                    got.push((items[s.start..s.end].to_vec(), s.center(), s.index));
                }
            }
            got.extend(sp.finish().map(|s| (items[s.start..s.end].to_vec(), s.center(), s.index)));
            proptest::prop_assert_eq!(got, batch_windows(half, &items));
        }
    }

    #[test]
    fn sliding_windows_latency_is_half() {
        let mut sw = SlidingWindows::new(2);
        assert_eq!(sw.half(), 2);
        assert!(sw.push(0).is_none());
        assert!(sw.push(1).is_none());
        let w = sw.push(2).expect("center 0 ready after its lookahead");
        assert_eq!(w.index, 0);
        assert_eq!(sw.pushed(), 3);
    }

    /// A move-only item type: compiling at all proves the slider has no
    /// `T: Clone` bound; the long stream exercises mirror-buffer
    /// compaction (each item is moved in once and windows stay correct).
    #[test]
    fn sliding_windows_take_move_only_items_and_compact() {
        #[derive(Debug, PartialEq)]
        struct NoClone(usize);

        let half = 2;
        let n = 100;
        let mut sw = SlidingWindows::new(half);
        let mut centers = Vec::new();
        for i in 0..n {
            if let Some(w) = sw.push(NoClone(i)) {
                assert!(w.items.len() <= 2 * half + 1);
                assert_eq!(w.items[w.center], NoClone(w.index));
                assert_eq!(w.items[0], NoClone(w.index.saturating_sub(half)));
                centers.push(w.index);
            }
        }
        let mut tail = sw.finish();
        assert_eq!(tail.len(), half);
        assert!(!tail.is_empty());
        while let Some(w) = tail.next() {
            assert_eq!(w.items[w.center], NoClone(w.index));
            centers.push(w.index);
        }
        assert_eq!(centers, (0..n).collect::<Vec<_>>());
    }

    /// Regression (old bug): `finish` used to take `&mut self` and leave
    /// a stale ring behind, so pushing a *second* stream silently emitted
    /// windows mixing both streams' items. `finish(self)` now consumes
    /// the slider — reuse is a compile error — and a fresh slider starts
    /// from a genuinely clean state.
    #[test]
    fn finish_consumes_the_slider_and_fresh_streams_start_clean() {
        let mut first = SlidingWindows::new(1);
        assert!(first.push('x').is_none());
        assert_eq!(first.push('y').unwrap().items, &['x', 'y']);
        let mut tail = first.finish();
        assert_eq!(tail.next().unwrap().items, &['x', 'y']);
        // `first.push('z')` here would not compile: `finish` moved it.

        let mut second = SlidingWindows::new(1);
        let w = second.push('a');
        assert!(w.is_none(), "a fresh stream has no stale lookahead");
        let w = second.push('b').expect("center 0 of the second stream");
        assert_eq!(w.items, &['a', 'b'], "no first-stream items leak in");
        assert_eq!(w.index, 0, "stream indices restart at 0");
    }

    #[test]
    fn window_span_geometry() {
        let mut sp = SlidingSpans::new(1);
        sp.push();
        let s = sp.push().expect("center 0");
        assert_eq!((s.start, s.end, s.center()), (0, 2, 0));
        assert_eq!((sp.next_center, sp.pushed), (1, 2));
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
            let reports = batch.process_batch(&samples, &ThreadPool::exact(threads));
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
        m.process_batch(&samples, &ThreadPool::exact(4));
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
        m.process_batch(&samples(), &ThreadPool::exact(4));
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
        batch.process_batch(&stream, &ThreadPool::exact(4));
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
            for (items, _, _) in batch_windows(half, &data) {
                want.push_row(&[items.iter().sum::<i64>() as f64]);
                want_len.push(items.len() as f64);
            }
            for threads in [1, 2, 8] {
                let fills = AtomicUsize::new(0);
                let got = window_sums(&data, half, &ThreadPool::exact(threads), &fills);
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
        let (matrix, aux) = window_sums(&[], 2, &ThreadPool::exact(4), &fills);
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
                score_rows_chunked(137, 2, &ThreadPool::exact(threads), fill),
                want,
                "threads={threads}"
            );
        }
        let (empty, unc) = score_rows_chunked(0, 2, &ThreadPool::exact(4), fill);
        assert!(empty.is_empty() && unc.is_empty());
    }

    /// The zero-respawn probe of the persistent runtime: a streaming hot
    /// loop that re-enters the chunked driver repeatedly must never
    /// create a thread beyond the pool's initial workers.
    #[test]
    fn repeated_stream_scoring_never_respawns_workers() {
        let data: Vec<i64> = (0..500).map(|i| (i % 13) as i64 - 6).collect();
        let pool = ThreadPool::exact(4);
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
