//! Assertion-engine performance: the paper's §7 discusses runtime
//! overhead; these benches quantify it for this implementation —
//! per-sample monitoring cost and consistency-engine scaling.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use omg_bench::highway::{shared_pretrained_primary, HighwayScenario, FUSION_WINDOW_HALF};
use omg_bench::video::monitor_windows;
use omg_core::consistency::{ConsistencyEngine, ConsistencyWindow};
use omg_core::runtime::ThreadPool;
use omg_core::stream::Prepare;
use omg_core::Monitor;
use omg_domains::fusion::FusionWindow;
use omg_domains::helpers::{track_window, TrackedBox, VideoTrackSpec};
use omg_domains::{video_assertion_set, video_prepared_assertion_set, FusionPrepare, VideoPrepare};
use omg_geom::BBox2D;
use omg_scenario::Scenario;

fn make_windows(n: usize) -> Vec<omg_domains::VideoWindow> {
    monitor_windows(n, 3)
}

/// Per-window cost of running the full video assertion set through the
/// monitor — the runtime-monitoring overhead a deployment would pay.
/// `monitor/video_window` is the sequential per-invocation path;
/// `monitor/video_window_batch/N` is `process_batch` over the same
/// stream on `N` workers (bit-for-bit the same outputs — the comparison
/// is pure wall-clock, and `exp_throughput` reports it as windows/sec).
fn monitor_throughput(c: &mut Criterion) {
    let windows = make_windows(200);
    c.bench_function("monitor/video_window", |b| {
        b.iter_batched(
            || Monitor::with_assertions(video_assertion_set(0.45)),
            |mut monitor| {
                for w in &windows {
                    criterion::black_box(monitor.process(w));
                }
            },
            BatchSize::SmallInput,
        );
    });
    let mut group = c.benchmark_group("monitor/video_window_batch");
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &pool, |b, pool| {
            b.iter_batched(
                || Monitor::with_assertions(video_assertion_set(0.45)),
                |mut monitor| {
                    criterion::black_box(monitor.process_batch(&windows, pool));
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Streaming-monitor cost on the same stream: one preparation (tracker
/// run + consistency check) per window, shared by the set — versus the
/// batch monitor's per-assertion re-derivation above. Outputs are
/// bit-for-bit identical; the comparison is pure wall-clock
/// (`exp_throughput --stream` reports it as windows/sec).
fn stream_monitor_throughput(c: &mut Criterion) {
    let windows = make_windows(200);
    c.bench_function("monitor/video_window_stream", |b| {
        b.iter_batched(
            || Monitor::with_preparer(video_prepared_assertion_set(0.45), VideoPrepare::new(0.45)),
            |mut monitor| {
                for w in &windows {
                    criterion::black_box(monitor.process(w));
                }
            },
            BatchSize::SmallInput,
        );
    });
    let mut group = c.benchmark_group("monitor/video_window_stream_batch");
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &pool, |b, pool| {
            b.iter_batched(
                || {
                    Monitor::with_preparer(
                        video_prepared_assertion_set(0.45),
                        VideoPrepare::new(0.45),
                    )
                },
                |mut monitor| {
                    criterion::black_box(monitor.process_batch(&windows, pool));
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Consistency-engine cost vs. window length (checking + corrections).
fn consistency_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistency/check");
    for len in [10usize, 50, 200] {
        let mut window = ConsistencyWindow::new();
        for t in 0..len {
            let boxes: Vec<TrackedBox> = (0..8)
                .map(|k| TrackedBox {
                    track: k,
                    class: (k % 3) as usize,
                    bbox: BBox2D::new(
                        k as f64 * 100.0 + t as f64,
                        100.0,
                        k as f64 * 100.0 + t as f64 + 80.0,
                        160.0,
                    )
                    .unwrap(),
                })
                .collect();
            window.push(t as f64 * 0.1, boxes);
        }
        let engine = ConsistencyEngine::new(VideoTrackSpec).with_temporal_threshold(0.45);
        group.bench_with_input(BenchmarkId::from_parameter(len), &window, |b, w| {
            b.iter(|| criterion::black_box(engine.check(w)));
        });
    }
    group.finish();
}

/// Tracker-assignment cost per frame (the identification function behind
/// the video consistency assertions).
fn tracker_cost(c: &mut Criterion) {
    let windows = make_windows(100);
    c.bench_function("tracker/window5", |b| {
        b.iter(|| {
            for w in &windows {
                criterion::black_box(track_window(w));
            }
        });
    });
}

/// `n` highway fusion windows, cut from the scenario's stream the way
/// the scoring drivers cut them.
fn fusion_windows(n: usize) -> Vec<FusionWindow> {
    let scenario = HighwayScenario::highway(3, n, 1);
    let items = scenario.run_model(shared_pretrained_primary());
    (0..items.len())
        .map(|i| {
            let lo = i.saturating_sub(FUSION_WINDOW_HALF);
            let hi = (i + FUSION_WINDOW_HALF + 1).min(items.len());
            scenario.make_sample(&items[lo..hi], i - lo)
        })
        .collect()
}

/// Per-window cost of each tracked scenario's `Prepare` (tracker run
/// plus temporal consistency pass), the layer that dominates a video or
/// fusion window: 100 windows per iteration.
fn prepare_cost(c: &mut Criterion) {
    let video = make_windows(100);
    let prepare = VideoPrepare::new(0.45);
    c.bench_function("prepare/video_window", |b| {
        b.iter(|| {
            for w in &video {
                criterion::black_box(prepare.prepare(w));
            }
        });
    });
    let fusion = fusion_windows(100);
    let prepare = FusionPrepare::new(0.45);
    c.bench_function("prepare/fusion_window", |b| {
        b.iter(|| {
            for w in &fusion {
                criterion::black_box(prepare.prepare(w));
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = monitor_throughput, stream_monitor_throughput, consistency_scaling, tracker_cost,
        prepare_cost
}
criterion_main!(benches);
