//! Property-based tests for the assertion engine.

use omg_core::consistency::{AttrValue, ConsistencyEngine, ConsistencySpec, ConsistencyWindow};
use omg_core::runtime::ThreadPool;
use omg_core::{AssertionDb, AssertionId, AssertionSet, Monitor, Severity};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Out {
    id: u8,
    class: u8,
}

struct Spec;

impl ConsistencySpec for Spec {
    type Output = Out;
    type Id = u8;

    fn id(&self, o: &Out) -> u8 {
        o.id
    }

    fn attrs(&self, o: &Out) -> Vec<(String, AttrValue)> {
        vec![("class".to_string(), AttrValue::Int(o.class as i64))]
    }

    fn attr_keys(&self) -> Vec<String> {
        vec!["class".to_string()]
    }
}

fn arb_window() -> impl Strategy<Value = ConsistencyWindow<Out>> {
    proptest::collection::vec(proptest::collection::vec((0u8..4, 0u8..3), 0..4), 1..12).prop_map(
        |frames| {
            let mut w = ConsistencyWindow::new();
            for (t, outs) in frames.into_iter().enumerate() {
                w.push(
                    t as f64,
                    outs.into_iter()
                        .map(|(id, class)| Out { id, class })
                        .collect(),
                );
            }
            w
        },
    )
}

proptest! {
    /// The severity equals the violation count, and a single-invocation
    /// window can never violate temporal consistency.
    #[test]
    fn severity_equals_violation_count(w in arb_window(), t in 1.0f64..10.0) {
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(t);
        let violations = engine.check(&w);
        prop_assert_eq!(engine.severity(&w).value(), violations.len() as f64);
        if w.len() == 1 {
            prop_assert!(violations.iter().all(|v| !v.is_temporal()));
        }
    }

    /// Consistent windows (every identifier keeps one class) never raise
    /// attribute violations.
    #[test]
    fn uniform_attributes_never_violate(
        ids in proptest::collection::vec(0u8..4, 1..10),
        class in 0u8..3,
    ) {
        let engine = ConsistencyEngine::new(Spec);
        let mut w = ConsistencyWindow::new();
        for (t, &id) in ids.iter().enumerate() {
            w.push(t as f64, vec![Out { id, class }]);
        }
        prop_assert!(engine.check(&w).is_empty());
    }

    /// A larger temporal threshold can only add violations (monotonicity):
    /// anything violating at threshold t also violates at t' > t.
    #[test]
    fn temporal_threshold_is_monotone(w in arb_window(), t in 1.0f64..5.0, extra in 0.1f64..5.0) {
        let small = ConsistencyEngine::new(Spec).with_temporal_threshold(t);
        let large = ConsistencyEngine::new(Spec).with_temporal_threshold(t + extra);
        let n_small = small.check(&w).iter().filter(|v| v.is_temporal()).count();
        let n_large = large.check(&w).iter().filter(|v| v.is_temporal()).count();
        prop_assert!(n_large >= n_small, "t={t}: {n_small} vs t+{extra}: {n_large}");
    }

    /// Corrections only reference valid window positions.
    #[test]
    fn corrections_reference_valid_positions(w in arb_window(), t in 1.0f64..10.0) {
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(t);
        for c in engine.corrections(&w, |_, &id, _| Some(Out { id, class: 0 })) {
            prop_assert!(c.time_index() < w.len());
        }
    }

    /// The monitor's database always reconstructs exactly what was
    /// processed: counts, matrix shape, and per-sample severities.
    #[test]
    fn monitor_db_is_faithful(samples in proptest::collection::vec(-50i32..50, 1..40)) {
        let mut monitor: Monitor<i32> = Monitor::new();
        monitor.assertions_mut().add_fn("neg", |&x: &i32| Severity::from_bool(x < 0));
        monitor.assertions_mut().add_fn("mag", |&x: &i32| Severity::new(x.unsigned_abs() as f64));
        let reports: Vec<_> = samples.iter().map(|s| monitor.process(s)).collect();
        let matrix = monitor.db().severity_matrix();
        prop_assert_eq!(matrix.len(), samples.len());
        for (i, report) in reports.iter().enumerate() {
            prop_assert_eq!(&matrix[i], &report.severity_vector());
        }
        let neg_count = samples.iter().filter(|&&x| x < 0).count();
        prop_assert_eq!(monitor.db().fire_count(AssertionId(0)), neg_count);
    }

    /// Severity construction and ordering are consistent.
    #[test]
    fn severity_ordering_matches_values(a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let sa = Severity::new(a);
        let sb = Severity::new(b);
        prop_assert_eq!(sa > sb, a > b);
        prop_assert_eq!(sa.max(sb).value(), a.max(b));
        prop_assert_eq!(sa.fired(), a > 0.0);
    }

    /// Database top-k is sorted by severity and bounded by k.
    #[test]
    fn db_top_k_is_sorted(values in proptest::collection::vec(0.0f64..10.0, 1..30), k in 1usize..10) {
        let mut db = AssertionDb::new();
        for (i, &v) in values.iter().enumerate() {
            db.record_sample(i, &[(AssertionId(0), Severity::new(v))]);
        }
        let top = db.top_by_severity(AssertionId(0), k);
        prop_assert!(top.len() <= k);
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        let fired = values.iter().filter(|&&v| v > 0.0).count();
        prop_assert_eq!(top.len(), k.min(fired));
    }

    /// `check_all` is deterministic and stable across calls.
    #[test]
    fn check_all_is_deterministic(x in any::<i32>()) {
        let mut set: AssertionSet<i32> = AssertionSet::new();
        set.add_fn("even", |&v: &i32| Severity::from_bool(v % 2 == 0));
        set.add_fn("big", |&v: &i32| Severity::from_bool(v.abs() > 1000));
        prop_assert_eq!(set.check_all(&x), set.check_all(&x));
    }

    /// The hard tentpole invariant: `process_batch` at 1, 2, and 8
    /// threads produces bit-for-bit the same reports and database state
    /// as the sequential per-sample path, for random assertion sets over
    /// random sample streams.
    #[test]
    fn process_batch_is_deterministic_across_thread_counts(
        samples in proptest::collection::vec(-1000i32..1000, 0..60),
        thresholds in proptest::collection::vec(-500i32..500, 1..6),
        scale in 1u32..100,
    ) {
        let build = || {
            let mut m: Monitor<i32> = Monitor::new();
            for (k, &t) in thresholds.iter().enumerate() {
                m.assertions_mut().add_fn(
                    format!("above-{k}"),
                    move |&x: &i32| Severity::from_bool(x > t),
                );
            }
            m.assertions_mut().add_fn("scaled-mag", move |&x: &i32| {
                Severity::new(x.unsigned_abs() as f64 / scale as f64)
            });
            m
        };
        let mut seq = build();
        let seq_reports: Vec<_> = samples.iter().map(|s| seq.process(s)).collect();
        for threads in [1usize, 2, 8] {
            let mut par = build();
            let par_reports = par.process_batch(&samples, &ThreadPool::new(threads));
            prop_assert_eq!(&par_reports, &seq_reports, "threads={}", threads);
            prop_assert_eq!(par.db(), seq.db(), "threads={}", threads);
            prop_assert_eq!(par.samples_processed(), seq.samples_processed());
        }
    }

    /// `ThreadPool::map_indexed` always merges in index order, at any
    /// thread count and batch size.
    #[test]
    fn map_indexed_merges_in_order(n in 0usize..300, threads in 1usize..9, salt in any::<u64>()) {
        let pool = ThreadPool::new(threads);
        let got = pool.map_indexed(n, |i| (i as u64).wrapping_mul(salt));
        let want: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(salt)).collect();
        prop_assert_eq!(got, want);
    }

    /// Splitting one stream into arbitrary consecutive batches leaves the
    /// database identical to one big batch.
    #[test]
    fn batch_splits_do_not_change_db(
        samples in proptest::collection::vec(-100i32..100, 1..50),
        split in 0usize..50,
    ) {
        let split = split.min(samples.len());
        let build = || {
            let mut m: Monitor<i32> = Monitor::new();
            m.assertions_mut().add_fn("neg", |&x: &i32| Severity::from_bool(x < 0));
            m.assertions_mut().add_fn("mag", |&x: &i32| Severity::new(x.unsigned_abs() as f64));
            m
        };
        let pool = ThreadPool::new(2);
        let mut whole = build();
        whole.process_batch(&samples, &pool);
        let mut halves = build();
        halves.process_batch(&samples[..split], &pool);
        halves.process_batch(&samples[split..], &pool);
        prop_assert_eq!(whole.db(), halves.db());
        prop_assert_eq!(whole.samples_processed(), halves.samples_processed());
    }
}
