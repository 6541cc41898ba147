//! The **multi-tenant monitoring service**: the production shape of
//! model-assertion monitoring.
//!
//! The paper argues assertions are cheap enough to run "over every model
//! invocation" in deployment (§7); a real deployment is not one stream
//! but thousands of concurrent sessions — cameras, vehicles, patients —
//! sharing one scenario's assertion sets and models. This crate layers
//! that shape over the streaming engine:
//!
//! * [`SyncMap`] — the concurrent `Arc`-cached map (read-then-write on
//!   `RwLock<BTreeMap>`) behind the service's session-shard table:
//!   construct once under race, share forever.
//! * [`MonitorService`] — session-keyed monitor shards over one
//!   scenario, which builds the assertion set and preparer once for
//!   every session. Each session owns one item buffer, cut into
//!   windows in place; its ingest is bounded per drain
//!   ([`MonitorService::try_ingest`] pushes back with
//!   [`IngestError::QueueFull`] instead of growing), and its database
//!   is retention-capped; drains divide work at **session**
//!   granularity across the pool.
//! * [`DynService`] / [`ServiceHarness`] — the type-erased face the
//!   conformance suite and the `exp service` soak benchmark drive.
//!
//! The load-bearing contract: a session's output sequence is
//! **bit-for-bit** the sequential [`omg_scenario::stream_score_scenario`]
//! run of the same items, no matter how sessions interleave or how many
//! workers drain them — enforced for every registered scenario at 1/2/8
//! workers by the registry-driven conformance suite
//! (`tests/tests/service_conformance.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod service;
mod syncmap;

pub use harness::{DynService, ServiceHarness};
pub use service::{IngestError, MonitorService, ServiceConfig, SessionId, SessionReport};
pub use syncmap::SyncMap;

// Re-exported so service callers can name the runtime and the score
// types without extra imports.
pub use omg_scenario::{Scores, ThreadPool};

#[cfg(test)]
mod tests {
    use super::*;
    use omg_core::stream::{FnPrepare, Prepare};
    use omg_core::{AssertionSet, FnAssertion, Severity, SeverityMatrix};
    use omg_scenario::{stream_score_scenario, Scenario};
    use proptest::TestCaseResult;
    use rand::rngs::StdRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A toy stream item that counts its clones, so a test can check
    /// that scoring moves items and never copies them.
    pub(crate) struct Tally {
        value: i64,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Tally {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::SeqCst);
            Self {
                value: self.value,
                clones: Arc::clone(&self.clones),
            }
        }
    }

    /// A deterministic toy scenario: items are small integers, samples
    /// are the window's items, the shared preparation is the window
    /// sum. Clones of the scenario share one item-clone counter.
    #[derive(Clone)]
    pub(crate) struct Toy {
        n: usize,
        half: usize,
        clones: Arc<AtomicUsize>,
    }

    impl Toy {
        /// A stream of `n` items, windows of `half` items on each side.
        pub(crate) fn new(n: usize, half: usize) -> Self {
            Self {
                n,
                half,
                clones: Arc::new(AtomicUsize::new(0)),
            }
        }

        /// Item clones performed anywhere since construction.
        fn clones(&self) -> usize {
            self.clones.load(Ordering::SeqCst)
        }
    }

    impl Scenario for Toy {
        type Item = Tally;
        type Sample = Vec<i64>;
        type Prep = i64;
        type Model = ();
        type Labels = ();

        fn name(&self) -> &'static str {
            "toy-service"
        }

        fn window_half(&self) -> usize {
            self.half
        }

        fn pool_len(&self) -> usize {
            self.n
        }

        fn pretrained_model(&self, _seed: u64) {}

        fn run_model(&self, _model: &()) -> Vec<Tally> {
            (0..self.n as i64)
                .map(|i| Tally {
                    value: (i * 37) % 23 - 11,
                    clones: Arc::clone(&self.clones),
                })
                .collect()
        }

        fn assertion_set(&self) -> AssertionSet<Vec<i64>> {
            let mut set = AssertionSet::new();
            set.add_fn("negative-sum", |xs: &Vec<i64>| {
                Severity::from_bool(xs.iter().sum::<i64>() < 0)
            });
            set.add_fn("large-sum", |xs: &Vec<i64>| {
                Severity::new(xs.iter().sum::<i64>().unsigned_abs() as f64 / 8.0)
            });
            set
        }

        fn prepared_set(&self) -> AssertionSet<Vec<i64>, i64> {
            let mut set = AssertionSet::new();
            set.add_prepared(
                FnAssertion::new("negative-sum", |xs: &Vec<i64>| {
                    Severity::from_bool(xs.iter().sum::<i64>() < 0)
                }),
                |_, &sum: &i64| Severity::from_bool(sum < 0),
            );
            set.add_prepared(
                FnAssertion::new("large-sum", |xs: &Vec<i64>| {
                    Severity::new(xs.iter().sum::<i64>().unsigned_abs() as f64 / 8.0)
                }),
                |_, &sum: &i64| Severity::new(sum.unsigned_abs() as f64 / 8.0),
            );
            set
        }

        fn preparer(&self) -> Box<dyn Prepare<Vec<i64>, Prepared = i64>> {
            Box::new(FnPrepare::new(|xs: &Vec<i64>| xs.iter().sum::<i64>()))
        }

        fn make_sample(&self, items: &[Tally], _center: usize) -> Vec<i64> {
            items.iter().map(|t| t.value).collect()
        }

        fn uncertainty(&self, item: &Tally) -> f64 {
            (item.value as f64) / 10.0
        }

        fn trains(&self) -> bool {
            false
        }

        fn initial_labels(&self) {}

        fn label_into(&self, _labels: &mut (), _pool_index: usize) {}

        fn train(&self, _model: &mut (), _labels: &(), _rng: &mut StdRng) {}

        fn evaluate(&self, _model: &()) -> f64 {
            0.0
        }
    }

    fn harness(n: usize, config: ServiceConfig) -> Box<dyn DynService> {
        ServiceHarness::boxed(Toy::new(n, 1), (), config)
    }

    #[test]
    fn interleaved_sessions_match_independent_sequential_runs() {
        for workers in [1, 2, 8] {
            let pool = ThreadPool::exact(workers);
            let svc = harness(40, ServiceConfig::default().with_retention(3));
            // Three sessions over different slices of the stream,
            // ingested round-robin with drains interleaved.
            let slices = [(0usize, 40usize), (0, 17), (11, 23)];
            let mut cursors = [0usize; 3];
            let mut delivered: Vec<Scores> = vec![(SeverityMatrix::new(), Vec::new()); 3];
            loop {
                let mut progressed = false;
                for (s, &(start, len)) in slices.iter().enumerate() {
                    for _ in 0..4 {
                        if cursors[s] < len {
                            svc.try_ingest_position(SessionId(s as u64), start + cursors[s])
                                .expect("default capacity is ample");
                            cursors[s] += 1;
                            progressed = true;
                        }
                    }
                }
                svc.drain(&pool);
                // Poll mid-stream: delivery must compose.
                for (s, out) in delivered.iter_mut().enumerate() {
                    extend_scores(out, svc.poll(SessionId(s as u64)).expect("open session"));
                }
                if !progressed {
                    break;
                }
            }
            for (s, &(start, len)) in slices.iter().enumerate() {
                let tail = svc.finish(SessionId(s as u64)).expect("open session");
                extend_scores(&mut delivered[s], tail);
                let want = svc.sequential_reference(start, len);
                assert_eq!(
                    delivered[s], want,
                    "session {s} diverged from its sequential run (workers={workers})"
                );
            }
            assert_eq!(svc.sessions(), 0, "finish tears sessions down");
        }
    }

    /// The backpressure satellite: a full bounded queue rejects with
    /// `QueueFull` without dropping already-accepted items, and drains
    /// to empty after the shard resumes.
    #[test]
    fn full_queue_rejects_without_dropping_accepted_items() {
        let svc = harness(20, ServiceConfig::default().with_queue_capacity(3));
        let session = SessionId(9);
        for position in 0..3 {
            svc.try_ingest_position(session, position)
                .expect("under capacity");
        }
        assert_eq!(
            svc.try_ingest_position(session, 3),
            Err(IngestError::QueueFull {
                session,
                capacity: 3
            })
        );
        assert_eq!(svc.queued(), 3, "rejection dropped nothing");
        assert_eq!(svc.accepted(), 3);
        // Resume: a drain frees the queue, the rejected item goes
        // through on retry, and everything scores in order.
        svc.drain(&ThreadPool::exact(2));
        assert_eq!(svc.queued(), 0, "drained to empty");
        for position in 3..6 {
            svc.try_ingest_position(session, position)
                .expect("freed capacity");
        }
        svc.drain(&ThreadPool::exact(2));
        let got = svc.finish(session).expect("open session");
        assert_eq!(got, svc.sequential_reference(0, 6), "no gap, no reorder");
    }

    /// The flat-memory contract: with retention configured, resident
    /// database rows stay bounded no matter how many items flow
    /// through.
    #[test]
    fn retention_keeps_resident_records_flat() {
        let keep = 4;
        let svc = harness(
            200,
            ServiceConfig::default()
                .with_queue_capacity(16)
                .with_retention(keep),
        );
        let pool = ThreadPool::exact(2);
        let assertions = svc.assertion_names().len();
        let sessions = 3u64;
        let mut max_resident = 0usize;
        for position in 0..200 {
            for s in 0..sessions {
                while svc.try_ingest_position(SessionId(s), position).is_err() {
                    svc.drain(&pool);
                }
            }
            if position % 8 == 0 {
                svc.drain(&pool);
                max_resident = max_resident.max(svc.resident_records());
                for s in 0..sessions {
                    let _ = svc.poll(SessionId(s));
                }
            }
        }
        let bound = sessions as usize * keep * assertions;
        assert!(
            max_resident <= bound,
            "resident rows {max_resident} exceed the flat bound {bound}"
        );
        assert_eq!(svc.accepted(), 600);
    }

    #[test]
    fn idle_sessions_are_evicted_but_busy_ones_survive() {
        let svc = harness(
            30,
            ServiceConfig::default()
                .with_queue_capacity(8)
                .with_idle_eviction(2),
        );
        let pool = ThreadPool::sequential();
        let idle = SessionId(1);
        let busy = SessionId(2);
        svc.try_ingest_position(idle, 0).expect("capacity");
        for tick in 0..6 {
            // `busy` keeps ingesting every tick; `idle` went quiet.
            svc.try_ingest_position(busy, tick).expect("capacity");
            svc.drain(&pool);
            let _ = svc.poll(idle);
            let _ = svc.poll(busy);
        }
        assert_eq!(svc.sessions(), 1, "idle session evicted");
        assert!(svc.poll(idle).is_none(), "evicted session is gone");
        assert!(svc.poll(busy).is_some(), "active session survives");
    }

    #[test]
    fn eviction_never_drops_queued_items_or_unpolled_outputs() {
        let svc = harness(
            30,
            ServiceConfig::default()
                .with_queue_capacity(8)
                .with_idle_eviction(1),
        );
        let pool = ThreadPool::sequential();
        let session = SessionId(4);
        for position in 0..6 {
            svc.try_ingest_position(session, position)
                .expect("capacity");
        }
        // Many drains pass; outputs are never polled, so the session —
        // though idle — must not be evicted out from under its data.
        for _ in 0..5 {
            svc.drain(&pool);
        }
        assert_eq!(svc.sessions(), 1, "unpolled outputs pin the session");
        let (sev, _) = svc.poll(session).expect("still alive");
        assert!(!sev.is_empty());
        // Now fully delivered and idle: the next drains sweep it.
        for _ in 0..3 {
            svc.drain(&pool);
        }
        assert_eq!(svc.sessions(), 0, "delivered idle session evicted");
    }

    /// Appends one batch of delivered outputs to a session's running total.
    fn extend_scores(into: &mut Scores, (sev, unc): Scores) {
        into.0.append(&sev);
        into.1.extend(unc);
    }

    /// Feeds stream positions `0..n` into one session in bursts taken
    /// from `cadence` (cycled), draining after every burst and polling
    /// where the cadence says. Every offer must be accepted exactly while
    /// fewer than `capacity` items came in since the last drain; every
    /// drain must leave nothing queued and every center with its
    /// lookahead in scored; the delivered rows must be the sequential
    /// run's.
    fn run_session(
        half: usize,
        n: usize,
        capacity: usize,
        cadence: &[(usize, bool)],
        pool: &ThreadPool,
    ) -> TestCaseResult {
        let svc = ServiceHarness::boxed(
            Toy::new(n, half),
            (),
            ServiceConfig::default().with_queue_capacity(capacity),
        );
        let session = SessionId(0);
        let mut delivered: Scores = (SeverityMatrix::new(), Vec::new());
        let mut pushed = 0;
        for &(burst, poll) in cadence.iter().cycle() {
            if pushed == n {
                break;
            }
            let mut since_drain = 0;
            while since_drain < burst && pushed < n {
                let offered = svc.try_ingest_position(session, pushed);
                proptest::prop_assert_eq!(offered.is_ok(), since_drain < capacity);
                if offered.is_err() {
                    break;
                }
                pushed += 1;
                since_drain += 1;
                proptest::prop_assert_eq!(svc.queued(), since_drain);
            }
            svc.drain(pool);
            proptest::prop_assert_eq!(svc.queued(), 0);
            proptest::prop_assert_eq!(svc.scored(), pushed.saturating_sub(half));
            if poll {
                extend_scores(&mut delivered, svc.poll(session).expect("open session"));
            }
        }
        if let Some(tail) = svc.finish(session) {
            extend_scores(&mut delivered, tail);
        }
        proptest::prop_assert_eq!(svc.scored(), n);
        proptest::prop_assert_eq!(svc.accepted(), n);
        proptest::prop_assert_eq!(delivered, svc.sequential_reference(0, n));
        Ok(())
    }

    proptest::proptest! {
        /// A session fed and polled at any cadence delivers exactly the
        /// sequential rows, scoring each center at the first drain after
        /// its `half` items of lookahead are in. The ranges force the
        /// clamped edges: `half = 0`, `n` of 0 and 1, `n < 2 * half + 1`.
        #[test]
        fn sessions_deliver_sequential_rows_at_any_cadence(
            half in 0usize..5,
            n in 0usize..48,
            capacity in 1usize..6,
            cadence in proptest::collection::vec((1usize..8, proptest::any::<bool>()), 1..6),
        ) {
            for workers in [1, 2, 8] {
                run_session(half, n, capacity, &cadence, &ThreadPool::exact(workers))?;
            }
        }
    }

    /// The clamped edges, pinned rather than left to the draw above:
    /// `half = 0`, `n` of 0 and 1, and streams shorter than one full
    /// window, where both edges clamp at once.
    #[test]
    fn sessions_deliver_sequential_rows_at_the_clamped_edges() {
        let pool = ThreadPool::exact(2);
        for half in 0..4 {
            for n in [0, 1, 2, 5, 9] {
                let run = run_session(half, n, 2, &[(3, true), (1, false)], &pool);
                assert_eq!(run, Ok(()), "half={half} n={n}");
            }
        }
    }

    /// A session id reused after `finish` starts a fresh stream: its
    /// rows are the sequential run of the new items alone, with no item
    /// of the finished stream in any window.
    #[test]
    fn finished_session_id_starts_a_fresh_stream() {
        let svc = ServiceHarness::boxed(Toy::new(30, 2), (), ServiceConfig::default());
        let pool = ThreadPool::exact(2);
        let session = SessionId(3);
        for position in 0..7 {
            svc.try_ingest_position(session, position)
                .expect("default capacity is ample");
        }
        svc.drain(&pool);
        let first = svc.finish(session).expect("open session");
        assert_eq!(first, svc.sequential_reference(0, 7));
        for position in 12..21 {
            svc.try_ingest_position(session, position)
                .expect("default capacity is ample");
        }
        svc.drain(&pool);
        let second = svc.finish(session).expect("reopened session");
        assert_eq!(second, svc.sequential_reference(12, 9));
    }

    /// Scoring moves a session's items and never clones them: items fed
    /// straight to `MonitorService::try_ingest` are cut into windows in
    /// place by every drain and by `finish`.
    #[test]
    fn sessions_score_without_cloning_items() {
        for half in [0usize, 2] {
            let toy = Toy::new(23, half);
            let items = toy.run_model(&());
            let want = stream_score_scenario(
                &toy,
                &toy.prepared_set(),
                &toy.preparer(),
                &items,
                &ThreadPool::sequential(),
            );
            let svc = MonitorService::new(toy.clone(), ServiceConfig::default());
            let pool = ThreadPool::exact(2);
            let session = SessionId(0);
            let mut got: Scores = (SeverityMatrix::new(), Vec::new());
            let mut stream = items.into_iter().peekable();
            while stream.peek().is_some() {
                for item in stream.by_ref().take(4) {
                    svc.try_ingest(session, item)
                        .expect("default capacity is ample");
                }
                svc.drain(&pool);
                extend_scores(&mut got, svc.poll(session).expect("open session"));
            }
            let report = svc.finish(session).expect("open session");
            extend_scores(&mut got, report.scores);
            assert_eq!(got, want, "half={half}");
            assert_eq!(toy.clones(), 0, "half={half}: scoring cloned an item");
        }
    }
}
