//! The scenario engine's conformance suite: **every scenario in the
//! runtime registry** — current and future — automatically gets the
//! streaming engine's contract checked, with zero per-scenario test
//! code:
//!
//! * the incremental prepare-once path is **bit-for-bit equal** to the
//!   batch reference path, across world seeds, stream lengths, and the
//!   1/2/8-thread ladder;
//! * the expensive per-window preparation runs exactly once per window,
//!   at every thread count;
//! * every trainable scenario drives active-learning rounds end to end.
//!
//! (Heinrichs 2023 motivates the incremental formulation: online
//! monitoring has to keep up with the stream. The paper's §7 motivates
//! the equality: assertions must be checkable "over every model
//! invocation", so the fast path may not change a single severity.)
//!
//! Registering a scenario in `omg_bench::scenarios::all_scenarios` is
//! what puts it under this suite — a new use case is conformance-tested
//! by construction.

use omg_bench::scenarios::all_scenarios;
use omg_bench::video::{self, FLICKER_T};
use omg_core::runtime::ThreadPool;
use omg_core::stream::CountingPrepare;
use omg_core::Monitor;
use omg_domains::{video_assertion_set, video_prepared_assertion_set, VideoPrepare};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 8];

proptest! {
    /// The registry-wide equivalence property: for every registered
    /// scenario, streaming severities and uncertainties equal the batch
    /// reference bit-for-bit at 1, 2, and 8 threads.
    #[test]
    fn every_scenario_streams_equal_to_batch(seed in 0u64..120, size in 8usize..32) {
        for scenario in all_scenarios(seed, size) {
            let want = scenario.score_batch(&ThreadPool::sequential());
            prop_assert_eq!(want.0.len(), scenario.len(), "{}: one row per position", scenario.name());
            for threads in THREADS {
                let got = scenario.score_stream(&ThreadPool::new(threads));
                prop_assert_eq!(
                    &got, &want,
                    "{} stream != batch (seed={}, size={}, threads={})",
                    scenario.name(), seed, size, threads
                );
            }
        }
    }

    #[test]
    fn stream_monitor_equals_batch_monitor_on_video(seed in 0u64..200, len in 2usize..16) {
        // The monitor-level guarantee: the prepared monitor's reports and
        // database match the self-contained monitor's, sample for sample,
        // at 1/2/8 threads.
        // (Windows built by hand from the shared detector: the
        // `monitor_windows` convenience pretrains a fresh one per call.)
        let mut world = omg_sim::traffic::TrafficWorld::new(
            omg_sim::traffic::TrafficConfig::night_street(),
            seed,
        );
        let frames = world.steps(len);
        let dets = video::detect_all(video::shared_pretrained_detector(), &frames);
        let windows: Vec<_> = (0..len).map(|c| video::window_at(&frames, &dets, c)).collect();
        let mut reference = Monitor::with_assertions(video_assertion_set(FLICKER_T));
        let want: Vec<_> = windows.iter().map(|w| reference.process(w)).collect();
        let prepares = Arc::new(AtomicUsize::new(0));
        let mut stream = Monitor::with_preparer(
            video_prepared_assertion_set(FLICKER_T),
            CountingPrepare::new(VideoPrepare::new(FLICKER_T), prepares.clone()),
        );
        let got: Vec<_> = windows.iter().map(|w| stream.process(w)).collect();
        prop_assert_eq!(&got, &want, "prepared != self-contained (seed={}, len={})", seed, len);
        prop_assert_eq!(stream.db(), reference.db());
        prop_assert_eq!(prepares.load(Ordering::SeqCst), windows.len());
        for threads in THREADS {
            let prepares = Arc::new(AtomicUsize::new(0));
            let mut batch = Monitor::with_preparer(
                video_prepared_assertion_set(FLICKER_T),
                CountingPrepare::new(VideoPrepare::new(FLICKER_T), prepares.clone()),
            );
            let reports = batch.process_batch(&windows, &ThreadPool::new(threads));
            prop_assert_eq!(&reports, &want, "process_batch diverged at {} threads", threads);
            prop_assert_eq!(batch.db(), reference.db());
            prop_assert_eq!(prepares.load(Ordering::SeqCst), windows.len());
        }
    }
}

/// Clamped-edge conformance for the zero-copy window engine: tiny
/// streams — a single position, and streams shorter than one full
/// window (`n < 2 * half + 1`, where both clamps apply to every
/// window) — score identically on the borrowed-window streaming path
/// and the batch reference, at every thread count (which also crosses
/// chunk boundaries at sizes comparable to the window).
#[test]
fn tiny_streams_score_equal_to_batch_at_the_clamped_edges() {
    for size in [1usize, 2, 3, 5] {
        for scenario in all_scenarios(7, size) {
            let want = scenario.score_batch(&ThreadPool::sequential());
            for threads in THREADS {
                assert_eq!(
                    scenario.score_stream(&ThreadPool::new(threads)),
                    want,
                    "{} size={size} threads={threads}",
                    scenario.name()
                );
            }
        }
    }
}

/// The prepare-once invariant, measured through the registry's counting
/// probe: scoring an `n`-position stream runs each scenario's
/// preparation (tracking, projection, segmentation, grouping) exactly
/// `n` times — once per window — sequentially and at every thread count,
/// since parallel chunks borrow their windows from the shared stream.
#[test]
fn preparation_runs_exactly_once_per_window_sequentially() {
    for scenario in all_scenarios(11, 60) {
        for threads in THREADS {
            let ((sev, _), prepares) = scenario.score_stream_counting(&ThreadPool::new(threads));
            assert_eq!(sev.len(), scenario.len());
            assert_eq!(
                prepares,
                scenario.len(),
                "{} at {threads} threads: streaming must prepare exactly once per window",
                scenario.name()
            );
        }
    }
}

/// Every trainable scenario runs active-learning rounds end to end
/// through the erased registry learner (the fifth scenario is covered
/// here with zero scenario-specific test code); monitoring-only
/// scenarios hand out no learner.
#[test]
fn every_trainable_scenario_drives_learning_rounds() {
    use rand::SeedableRng;
    let mut saw_learner = 0usize;
    for scenario in all_scenarios(5, 24) {
        let Some(mut learner) = scenario.learner(ThreadPool::sequential()) else {
            assert_eq!(
                scenario.name(),
                "news",
                "only TV news is monitoring-only (no training access, §5.1)"
            );
            continue;
        };
        saw_learner += 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let records = omg_active::run_rounds(
            learner.as_mut(),
            &mut omg_active::RandomStrategy,
            2,
            4,
            &mut rng,
        );
        assert_eq!(
            records.len(),
            2,
            "{}: one record per round",
            scenario.name()
        );
        assert!(
            records.iter().all(|r| r.labeled == 4),
            "{}: every round labels its budget",
            scenario.name()
        );
    }
    assert_eq!(saw_learner, 4, "four of the five scenarios train");
}
