//! The generic scoring drivers every scenario runs through.
//!
//! Both paths return, per stream position, the dense per-assertion
//! severity row — collected **columnar**, as one contiguous
//! [`SeverityMatrix`] — and the model uncertainty: the inputs the
//! selection strategies consume. Both run on the one chunked driver,
//! [`score_rows_chunked`], over each position's clamped window borrowed
//! in place from the item slice; both are deterministic, input-order
//! merged, and bit-for-bit identical to each other at any thread count
//! (the registry-driven conformance suite enforces this for every
//! registered scenario).

use omg_core::runtime::ThreadPool;
use omg_core::stream::{score_rows_chunked, Prepare};
use omg_core::{AssertionSet, SeverityMatrix};

use crate::Scenario;

/// The clamped window around position `i` of `items` — `half` items of
/// context on each side, cut at the slice's ends — and the index of
/// position `i` within it: `&items[max(0, i - half)..min(i + half + 1,
/// n)]`, borrowed in place. Every window a scenario is scored over is
/// cut here: by both drivers, by [`crate::errors_by_assertion`], and by
/// a service session over the buffered suffix of its stream.
///
/// # Panics
///
/// Panics if `i >= items.len()`.
pub fn clamped_window<T>(items: &[T], i: usize, half: usize) -> (&[T], usize) {
    let lo = i.saturating_sub(half);
    // PANIC: callers pass i < items.len() (the documented contract; both
    // drivers get it from score_rows_chunked), so lo <= i < hi <= n.
    (&items[lo..(i + half + 1).min(items.len())], i - lo)
}

/// Batch-scores a scenario's item stream: for each position, the clamped
/// window of `window_half` items of context becomes a sample checked
/// with the **self-contained** assertion set (each assertion re-derives
/// what it needs — the reference semantics, and what the paper's Python
/// implementation does). Work fans out across the pool's workers, each
/// chunk filling a contiguous severity block, and merges in stream order
/// by range-copy.
pub fn score_scenario<Sc: Scenario>(
    scenario: &Sc,
    set: &AssertionSet<Sc::Sample>,
    items: &[Sc::Item],
    pool: &ThreadPool,
) -> (SeverityMatrix, Vec<f64>) {
    let half = scenario.window_half();
    score_rows_chunked(items.len(), set.len(), pool, |i, row| {
        let (window, center) = clamped_window(items, i, half);
        let sample = scenario.make_sample(window, center);
        row.clear();
        row.extend(set.check_all(&sample).iter().map(|&(_, s)| s.value()));
        // PANIC: clamped_window returns a center inside its window.
        scenario.uncertainty(&window[center])
    })
}

/// Scores **one** clamped window on the prepare-once path: builds the
/// sample, runs the shared preparation exactly once, checks the prepared
/// set into the caller's reusable dense severity row (raw values in
/// assertion-id order — a [`SeverityMatrix`] row), and returns the
/// uncertainty of `window[center]`.
///
/// This is the single scoring kernel behind both
/// [`stream_score_scenario`] and the multi-tenant service's per-session
/// shards — sharing it is what makes the service path bit-for-bit equal
/// to the streaming path *by construction*, not by coincidence.
pub fn score_window<Sc: Scenario>(
    scenario: &Sc,
    set: &AssertionSet<Sc::Sample, Sc::Prep>,
    preparer: &(dyn Prepare<Sc::Sample, Prepared = Sc::Prep> + '_),
    window: &[Sc::Item],
    center: usize,
    values: &mut Vec<f64>,
) -> f64 {
    let sample = scenario.make_sample(window, center);
    let prep = preparer.prepare(&sample);
    set.check_all_prepared_values(&sample, &prep, values);
    // PANIC: center < window.len() is this fn's documented contract;
    // both callers pass the center of a clamped window.
    scenario.uncertainty(&window[center])
}

/// Stream-scores a scenario's item stream: the prepare-once counterpart
/// of [`score_scenario`], computing identical severities and
/// uncertainties through [`score_window`] with **zero item copies**
/// (each window is a borrowed slice of `items`) and **one** preparation
/// per window (shared by every assertion in the prepared set) instead of
/// one per assertion. Chunks of the stream fan out across the persistent
/// pool's workers and merge in stream order by range-copy: bit-for-bit
/// equal to the batch path at any thread count.
///
/// The preparer is a parameter (rather than taken from the scenario) so
/// callers can wrap it — the conformance suite passes a
/// [`omg_core::stream::CountingPrepare`] probe to measure the
/// prepare-once invariant.
pub fn stream_score_scenario<Sc: Scenario>(
    scenario: &Sc,
    set: &AssertionSet<Sc::Sample, Sc::Prep>,
    preparer: &(dyn Prepare<Sc::Sample, Prepared = Sc::Prep> + '_),
    items: &[Sc::Item],
    pool: &ThreadPool,
) -> (SeverityMatrix, Vec<f64>) {
    let half = scenario.window_half();
    score_rows_chunked(items.len(), set.len(), pool, |i, row| {
        let (window, center) = clamped_window(items, i, half);
        score_window(scenario, set, preparer, window, center, row)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{ToyModel, ToyScenario};
    use omg_core::stream::CountingPrepare;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn stream_equals_batch_on_the_toy_scenario() {
        let sc = ToyScenario::new(37);
        let items = sc.run_model(&ToyModel::default());
        let want = score_scenario(&sc, &sc.assertion_set(), &items, &ThreadPool::sequential());
        let set = sc.prepared_set();
        let preparer = sc.preparer();
        for threads in [1, 2, 8] {
            let got =
                stream_score_scenario(&sc, &set, &preparer, &items, &ThreadPool::new(threads));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    /// Streaming prepares each window exactly once at every thread
    /// count: chunks share the item slice, so no window is prepared twice.
    #[test]
    fn streaming_prepares_once_per_window_sequentially() {
        let sc = ToyScenario::new(97);
        let items = sc.run_model(&ToyModel::default());
        let set = sc.prepared_set();
        for threads in [1, 2, 8] {
            let counter = Arc::new(AtomicUsize::new(0));
            let probe = CountingPrepare::new(sc.preparer(), counter.clone());
            let (sev, _) =
                stream_score_scenario(&sc, &set, &probe, &items, &ThreadPool::new(threads));
            assert_eq!(sev.len(), items.len());
            assert_eq!(
                counter.load(Ordering::SeqCst),
                items.len(),
                "threads={threads}: one preparation per window"
            );
        }
    }

    /// The zero-copy contract, measured: scoring a stream through either
    /// driver performs **zero** item clones — at every thread count, and
    /// at the clamped edges (empty stream, streams shorter than one full
    /// window, and sizes forcing parallel chunk boundaries) — while
    /// staying bit-for-bit equal to the batch reference.
    #[test]
    fn stream_scoring_performs_zero_item_clones() {
        use crate::tests_support::CloneProbeScenario;
        for n in [0usize, 1, 3, 4, 5, 37, 97] {
            let sc = CloneProbeScenario::new(n);
            let items = sc.run_model(&ToyModel::default());
            assert_eq!(sc.item_clones(), 0, "run_model must not clone (n={n})");
            let want = score_scenario(&sc, &sc.assertion_set(), &items, &ThreadPool::sequential());
            assert_eq!(sc.item_clones(), 0, "batch driver must not clone (n={n})");
            let set = sc.prepared_set();
            let preparer = sc.preparer();
            for threads in [1, 2, 8] {
                let got =
                    stream_score_scenario(&sc, &set, &preparer, &items, &ThreadPool::new(threads));
                assert_eq!(got, want, "n={n} threads={threads}");
            }
            assert_eq!(
                sc.item_clones(),
                0,
                "steady-state streaming must not clone items (n={n})"
            );
        }
    }

    #[test]
    fn empty_stream_scores_empty() {
        let sc = ToyScenario::new(0);
        let items: Vec<i64> = Vec::new();
        let (sev, unc) =
            score_scenario(&sc, &sc.assertion_set(), &items, &ThreadPool::sequential());
        assert!(sev.is_empty() && unc.is_empty());
        let set = sc.prepared_set();
        let preparer = sc.preparer();
        let (ssev, sunc) = stream_score_scenario(&sc, &set, &preparer, &items, &ThreadPool::new(4));
        assert!(ssev.is_empty() && sunc.is_empty());
    }
}
