//! Model-checks the **production** worker pool (`omg_core::runtime`)
//! through the `omg_core::sync` facade. Only compiled under
//! `RUSTFLAGS="--cfg omg_model"`; the tier-1 build sees an empty file.
//!
//! Two halves, mirroring `sched_sanity`:
//!
//! * the real pool, exhaustively: every interleaving of the job
//!   handshake (publish → join → claim → drain → retract → shutdown)
//!   within the preemption bound must uphold the pool's invariants —
//!   no deref after retract, no lost wakeups, every index exactly
//!   once, panics drain and re-throw, shutdown strands no worker;
//! * the seeded mutations: for each invariant, a model-only switch
//!   re-introduces the bug the invariant guards against, and the
//!   checker must catch it. A checker that passes real code *and*
//!   fails every mutation is demonstrably checking something.
#![cfg(omg_model)]

use omg_core::runtime::ThreadPool;
use omg_verify::{model_with, Config};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        ..Config::default()
    }
}

fn mutated(name: &'static str) -> Config {
    Config {
        mutation: Some(name),
        ..Config::default()
    }
}

/// Runs `f` under the checker expecting a failure; returns the failure
/// message the harness panicked with.
fn must_fail(cfg: Config, f: impl Fn() + Send + Sync + 'static) -> String {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| model_with(cfg, f)));
    let payload = result.expect_err("model checking should have caught the seeded mutation");
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        panic!("non-string model failure payload");
    }
}

// ---- the real pool, exhaustively ---------------------------------------

#[test]
fn inline_paths_have_no_concurrency() {
    // threads == 1, n < 2, and the 0-item call never publish a job:
    // one schedule each, nothing to interleave.
    let report = model_with(cfg(3), || {
        assert_eq!(
            ThreadPool::new(1).map_indexed(4, |i| i * i),
            vec![0, 1, 4, 9]
        );
        let pool = ThreadPool::new(1);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 7), vec![7]);
        assert_eq!(pool.spawned_workers(), 0);
    });
    assert!(report.exhausted);
    assert_eq!(
        report.iterations, 1,
        "inline paths must not hit the scheduler"
    );
}

#[test]
fn construct_and_drop_strands_no_worker() {
    // The spawn → park → shutdown → join handshake alone, exhaustively:
    // no interleaving may deadlock the drop (a stranded parked worker
    // would show up as exactly that).
    let report = model_with(cfg(3), || {
        drop(ThreadPool::new(2));
    });
    assert!(report.exhausted);
    assert!(report.iterations > 1, "spawn/shutdown interleave: {report}");
}

#[test]
fn one_worker_handshake_exhaustive() {
    // Submitter + one worker over two single-index chunks: the full
    // publish/join/claim/drain/retract/shutdown protocol.
    let report = model_with(cfg(3), || {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.map_indexed_coarse(2, |i| i * 10), vec![0, 10]);
    });
    assert!(report.exhausted);
    assert!(
        report.iterations > 10,
        "handshake must interleave: {report}"
    );
}

#[test]
fn two_workers_handshake_exhaustive() {
    // The 2-worker handshake of the issue: three threads race for two
    // chunks; one worker necessarily finds the cursor drained or the
    // generation already seen — both legs must stay sound.
    let report = model_with(cfg(2), || {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.map_indexed_coarse(2, |i| i + 100), vec![100, 101]);
    });
    assert!(report.exhausted);
    assert!(
        report.iterations > 100,
        "three threads, two chunks: {report}"
    );
}

#[test]
fn every_index_runs_exactly_once() {
    // Generation monotonicity / no double-run, observed directly: the
    // counters are plain `std` atomics, invisible to the scheduler, so
    // they add no interleavings — they just record what ran.
    let report = model_with(cfg(2), || {
        let runs: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        let pool = ThreadPool::new(2);
        pool.map_indexed_coarse(runs.len(), |i| runs[i].fetch_add(1, Ordering::SeqCst));
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::SeqCst),
                1,
                "index {i} must run exactly once"
            );
        }
    });
    assert!(report.exhausted);
}

#[test]
fn two_successive_jobs_reuse_workers() {
    // The generation bump must keep a worker from re-joining a job it
    // already ran — and from missing the next one.
    let report = model_with(cfg(2), || {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.map_indexed_coarse(2, |i| i), vec![0, 1]);
        assert_eq!(pool.map_indexed_coarse(2, |i| i + 1), vec![1, 2]);
        assert_eq!(pool.spawned_workers(), 1, "no respawn between jobs");
    });
    assert!(report.exhausted);
}

#[test]
fn panic_drains_rethrows_and_pool_survives() {
    // The panic path: the first panic aborts the job, drains every
    // worker out, and re-throws on the submitter — after which the
    // same pool must still run the next job.
    let report = model_with(cfg(2), || {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed_coarse(2, |i| {
                assert!(i != 1, "boom at 1");
                i
            })
        }));
        assert!(result.is_err(), "the job panic must reach the submitter");
        assert_eq!(pool.map_indexed_coarse(2, |i| i * 2), vec![0, 2]);
    });
    assert!(report.exhausted);
    assert!(
        report.iterations > 10,
        "panic path must interleave: {report}"
    );
}

#[test]
fn nested_submission_stays_inline_and_sound() {
    // A closure re-entering the pool must take the inline path, not
    // corrupt the handshake — under every interleaving.
    let report = model_with(cfg(2), || {
        let pool = ThreadPool::new(2);
        let pool2 = pool.clone();
        let got = pool.map_indexed_coarse(2, move |i| {
            pool2.map_indexed_coarse(2, |j| i + j).iter().sum::<usize>()
        });
        assert_eq!(got, vec![1, 3]);
    });
    assert!(report.exhausted);
}

// ---- the seeded mutations: every invariant can actually fire -----------

#[test]
fn mutation_skip_drain_wait_is_caught() {
    // Retracting without draining is the use-after-free the handshake
    // exists to prevent; the registry must attribute it to a schedule.
    let msg = must_fail(mutated("skip-drain-wait"), || {
        let pool = ThreadPool::new(2);
        let _ = pool.map_indexed_coarse(2, |i| i);
    });
    assert!(
        msg.contains("use-after-retract") || msg.contains("drain violation"),
        "got: {msg}"
    );
    assert!(
        msg.contains("schedule"),
        "failure must carry its schedule: {msg}"
    );
}

#[test]
fn mutation_skip_done_notify_is_caught() {
    // Losing the done-notify strands the submitter in the drain wait.
    let msg = must_fail(mutated("skip-done-notify"), || {
        let pool = ThreadPool::new(2);
        let _ = pool.map_indexed_coarse(2, |i| i);
    });
    assert!(msg.contains("deadlock"), "got: {msg}");
}

#[test]
fn mutation_torn_cursor_claim_is_caught() {
    // A load+store claim races two threads onto the same chunk.
    let msg = must_fail(mutated("torn-cursor-claim"), || {
        let runs: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        let pool = ThreadPool::new(2);
        let got = pool.map_indexed_coarse(runs.len(), |i| {
            runs[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::SeqCst),
                1,
                "torn claim ran index {i} twice"
            );
        }
        assert_eq!(got, vec![0, 1], "torn claim corrupted the merge");
    });
    assert!(
        msg.contains("torn claim") || msg.contains("deadlock"),
        "got: {msg}"
    );
}

#[test]
fn mutation_rethrow_before_drain_is_caught() {
    // Re-throwing the job panic before the drain unwinds the frame
    // while workers may still hold pointers into it: the frame canary
    // must flag the dying frame.
    let msg = must_fail(mutated("rethrow-before-drain"), || {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed_coarse(2, |i| {
                assert!(i != 0, "boom at 0");
                i
            })
        }));
        let _ = result;
    });
    assert!(msg.contains("drain violation"), "got: {msg}");
}

#[test]
fn mutation_skip_shutdown_notify_is_caught() {
    // Dropping the pool without waking the parked workers deadlocks
    // the join.
    let msg = must_fail(mutated("skip-shutdown-notify"), || {
        drop(ThreadPool::new(2));
    });
    assert!(msg.contains("deadlock"), "got: {msg}");
}
