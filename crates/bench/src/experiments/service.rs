//! `exp service` — the multi-tenant soak benchmark.
//!
//! Runs the night-street video scenario through
//! [`omg_service::MonitorService`] at a ladder of concurrent session
//! counts, measuring aggregate throughput (items/sec) and per-drain p99
//! latency while verifying the service's two load-bearing contracts on
//! every rung:
//!
//! * **conformance** — each session's delivered outputs are bit-for-bit
//!   the sequential single-stream run of the same items;
//! * **flat memory** — with retention configured, resident database
//!   rows never exceed `sessions x cap x assertions`, no matter how
//!   many items flow through.
//!
//! Results print as a table and land in `BENCH_service.json` under the
//! same committed top-level `benchmarks/` directory as the other archives (CI's
//! `exp_throughput --check-stream-archive` gate requires it).

use std::time::Instant;

use omg_core::runtime::ThreadPool;
use omg_scenario::Scores;
use omg_service::{ServiceConfig, SessionId};

use crate::scenarios::service_for;

/// Concurrent-session rungs the soak ladder climbs.
const SESSION_LADDER: [usize; 3] = [4, 16, 64];

/// Items each session replays per rung (a session replays the stream
/// prefix, wrapping if the ladder outgrows the precomputed stream).
const ITEMS_PER_SESSION: usize = 192;

/// Items offered to each session between drains.
const BURST: usize = 8;

/// Per-session queue capacity — small enough that the soak actually
/// exercises the `QueueFull` backpressure path.
const QUEUE_CAPACITY: usize = 16;

/// Per-session retained database rows (the flat-memory knob).
const RETAINED_SAMPLES: usize = 32;

/// One rung's measurements.
struct Rung {
    sessions: usize,
    items: usize,
    items_per_sec: f64,
    p99_drain_ms: f64,
    max_resident: usize,
    resident_bound: usize,
}

/// Runs one rung: `sessions` concurrent sessions round-robin over the
/// stream, drained on `pool`, with backpressure honored
/// (a full queue pauses that session's feed until the next drain).
fn run_rung(seed: u64, sessions: usize, pool: &ThreadPool) -> Rung {
    let config = ServiceConfig::default()
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_retention(RETAINED_SAMPLES);
    let svc = service_for("video", seed, ITEMS_PER_SESSION, config).expect("video is registered");
    let stream_len = svc.stream_len();
    let per_session = ITEMS_PER_SESSION.min(stream_len);
    let assertions = svc.assertion_names().len();

    let mut cursors = vec![0usize; sessions];
    let mut delivered: Vec<Scores> = vec![(omg_core::SeverityMatrix::new(), Vec::new()); sessions];
    let mut drain_ms: Vec<f64> = Vec::new();
    let mut max_resident = 0usize;
    let t0 = Instant::now();
    loop {
        let mut progressed = false;
        for (s, cursor) in cursors.iter_mut().enumerate() {
            let session = SessionId(s as u64);
            for _ in 0..BURST {
                if *cursor >= per_session {
                    break;
                }
                // Backpressure: a full queue defers the rest of this
                // session's burst to after the next drain.
                if svc.try_ingest_position(session, *cursor).is_err() {
                    break;
                }
                *cursor += 1;
                progressed = true;
            }
        }
        let d0 = Instant::now();
        svc.drain(pool);
        drain_ms.push(d0.elapsed().as_secs_f64() * 1e3);
        max_resident = max_resident.max(svc.resident_records());
        for (s, out) in delivered.iter_mut().enumerate() {
            let (sev, unc) = svc.poll(SessionId(s as u64)).expect("open session");
            out.0.append(&sev);
            out.1.extend(unc);
        }
        if !progressed && svc.queued() == 0 {
            break;
        }
    }
    for (s, out) in delivered.iter_mut().enumerate() {
        let (sev, unc) = svc.finish(SessionId(s as u64)).expect("open session");
        out.0.append(&sev);
        out.1.extend(unc);
    }
    let secs = t0.elapsed().as_secs_f64();

    // Conformance: every session delivered exactly the sequential
    // single-stream run of its items. Sessions replay the same prefix,
    // so one reference covers them all.
    let want = svc.sequential_reference(0, per_session);
    for (s, out) in delivered.iter().enumerate() {
        assert_eq!(
            out, &want,
            "session {s} diverged from the sequential reference ({sessions} sessions)"
        );
    }
    // Flat memory: retention bounds resident rows at every sample point.
    let resident_bound = sessions * RETAINED_SAMPLES * assertions;
    assert!(
        max_resident <= resident_bound,
        "resident rows {max_resident} exceed the flat bound {resident_bound}"
    );

    let items = sessions * per_session;
    Rung {
        sessions,
        items,
        items_per_sec: items as f64 / secs,
        p99_drain_ms: omg_eval::stats::quantile(&drain_ms, 0.99),
        max_resident,
        resident_bound,
    }
}

/// Writes the soak results as `BENCH_service.json` next to the other
/// bench archives, under the shared header
/// ([`crate::write_archive`], which exits on a write failure: CI's
/// archive gate requires the file).
fn write_service_json(workers: usize, rungs: &[Rung]) {
    let rows: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"sessions\": {}, \"items\": {}, \"items_per_sec\": {:.1}, \
                 \"p99_drain_ms\": {:.3}, \"max_resident_records\": {}}}",
                r.sessions, r.items, r.items_per_sec, r.p99_drain_ms, r.max_resident
            )
        })
        .collect();
    let fields = [
        ("scenario", "\"video\"".to_string()),
        ("workers", workers.to_string()),
    ];
    crate::write_archive("service", &fields, &rows);
}

/// Runs the soak ladder on `pool` and returns the rendered table.
pub fn run(seed: u64, pool: &ThreadPool) -> String {
    let workers = pool.threads();
    let mut out = String::new();
    out.push_str(&format!(
        "== multi-tenant service soak: video scenario, {workers} workers ==\n\
         (per session: {ITEMS_PER_SESSION} items, queue capacity {QUEUE_CAPACITY}, \
         retention {RETAINED_SAMPLES} samples)\n\n"
    ));
    out.push_str(&format!(
        "{:>10} {:>10} {:>14} {:>14} {:>22}\n",
        "sessions", "items", "items/sec", "p99 drain ms", "resident rows (bound)"
    ));
    let mut rungs = Vec::new();
    for sessions in SESSION_LADDER {
        let rung = run_rung(seed, sessions, pool);
        out.push_str(&format!(
            "{:>10} {:>10} {:>14.0} {:>14.3} {:>15} ({:>5})\n",
            rung.sessions,
            rung.items,
            rung.items_per_sec,
            rung.p99_drain_ms,
            rung.max_resident,
            rung.resident_bound
        ));
        rungs.push(rung);
    }
    out.push_str(
        "\n(every session verified bit-for-bit against its sequential run; \
         resident rows stayed under the retention bound)\n",
    );
    write_service_json(workers, &rungs);
    out
}
