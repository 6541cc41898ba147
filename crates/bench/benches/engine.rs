//! Assertion-engine performance: the paper's §7 discusses runtime
//! overhead; these benches quantify it for this implementation —
//! per-sample monitoring cost and consistency-engine scaling.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use omg_bench::avx::{shared_pretrained_camera, AvScenario};
use omg_bench::crowd::{crowd_stream, crowd_windows, frame_boxes, sliding_windows, CROWD_SIZES};
use omg_bench::ecgx::{pretrained_classifier, EcgScenario};
use omg_bench::highway::{shared_pretrained_primary, HighwayScenario};
use omg_bench::newsx::NewsScenario;
use omg_bench::video::{monitor_windows, shared_pretrained_detector, VideoScenario, FLICKER_T};
use omg_core::consistency::{ConsistencyEngine, ConsistencyWindow};
use omg_core::runtime::ThreadPool;
use omg_core::stream::Prepare;
use omg_core::{AssertionDb, Monitor};
use omg_domains::helpers::{track_window, TrackedBox, VideoTrackSpec};
use omg_domains::multibox::MULTIBOX_IOU;
use omg_domains::prepared::TRACK_IOU;
use omg_domains::{
    video_assertion_set, video_prepared_assertion_set, AvPrepare, EcgPrepare, FusionPrepare,
    NewsPrepare, VideoPrepare, VideoWindow,
};
use omg_geom::grid::GridIndex2D;
use omg_geom::{matchers, BBox2D};
use omg_scenario::{clamped_window, Scenario};

fn make_windows(n: usize) -> Vec<omg_domains::VideoWindow> {
    monitor_windows(n, 3)
}

/// Per-window cost of running the full video assertion set through the
/// monitor — the runtime-monitoring overhead a deployment would pay.
/// `monitor/video_window` is the sequential per-invocation path;
/// `monitor/video_window_batch/N` is `process_batch` over the same
/// stream on `N` workers. The outputs are bit-for-bit the same
/// (`end_to_end_monitoring.rs` checks it at 1, 2 and 8 workers), so the
/// comparison is pure wall-clock.
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

/// A scenario's item stream under `model`.
///
/// # Panics
///
/// Panics if the stream is shorter than `n` items.
fn scenario_items<Sc: Scenario>(scenario: &Sc, model: &Sc::Model, n: usize) -> Vec<Sc::Item> {
    let items = scenario.run_model(model);
    assert!(items.len() >= n, "{} items, {n} wanted", items.len());
    items
}

/// The sample at stream position `i`, cut the way the scoring drivers
/// cut it: the clamped window of `window_half` items on either side.
fn sample_at<Sc: Scenario>(scenario: &Sc, items: &[Sc::Item], i: usize) -> Sc::Sample {
    let (window, center) = clamped_window(items, i, scenario.window_half());
    scenario.make_sample(window, center)
}

/// The first `n` windows of a scenario's stream under `model`.
fn scenario_windows<Sc: Scenario>(scenario: &Sc, model: &Sc::Model, n: usize) -> Vec<Sc::Sample> {
    let items = scenario_items(scenario, model, n);
    (0..n).map(|i| sample_at(scenario, &items, i)).collect()
}

/// Times `prepare` over every window, once per iteration.
fn bench_prepare<S, Pr: Prepare<S>>(c: &mut Criterion, id: &str, prepare: &Pr, windows: &[S]) {
    c.bench_function(id, |b| {
        b.iter(|| {
            for w in windows {
                criterion::black_box(prepare.prepare(w));
            }
        });
    });
}

/// Per-window cost of each scenario's `Prepare`, 100 windows per
/// iteration. On a video or fusion window (association plus the
/// temporal consistency pass) it is the layer that dominates; AV
/// projects LIDAR boxes, ECG segments the prediction run, news groups
/// faces per slot.
fn prepare_cost(c: &mut Criterion) {
    const N: usize = 100;
    bench_prepare(
        c,
        "prepare/video_window",
        &VideoPrepare::new(0.45),
        &make_windows(N),
    );
    let highway = HighwayScenario::highway(3, N, 1);
    let fusion = scenario_windows(&highway, shared_pretrained_primary(), N);
    bench_prepare(
        c,
        "prepare/fusion_window",
        &FusionPrepare::new(0.45),
        &fusion,
    );
    let av = scenario_windows(&AvScenario::new(3, 5, 1), shared_pretrained_camera(), N);
    bench_prepare(c, "prepare/av_frame", &AvPrepare, &av);
    let ecg = EcgScenario::new(3, 40, N, 10);
    let ecg_windows = scenario_windows(&ecg, &pretrained_classifier(&ecg, 3), N);
    bench_prepare(c, "prepare/ecg_window", &EcgPrepare, &ecg_windows);
    let news = scenario_windows(&NewsScenario::new(3, N as u64), &(), N);
    bench_prepare(c, "prepare/news_scene", &NewsPrepare, &news);
}

/// Times `make_sample` over the first `n` positions of a scenario's
/// stream, once per iteration, as `make_sample/<scenario name>`.
fn bench_make_sample<Sc: Scenario>(c: &mut Criterion, scenario: &Sc, model: &Sc::Model, n: usize) {
    let items = scenario_items(scenario, model, n);
    c.bench_function(&format!("make_sample/{}", scenario.name()), |b| {
        b.iter(|| {
            for i in 0..n {
                criterion::black_box(sample_at(scenario, &items, i));
            }
        });
    });
}

/// Per-window cost of each registered scenario's `make_sample`, 100
/// positions per iteration: the sample every scoring path builds before
/// it prepares or checks.
fn make_sample_cost(c: &mut Criterion) {
    const N: usize = 100;
    let video = VideoScenario::night_street(3, N, 1);
    bench_make_sample(c, &video, shared_pretrained_detector(), N);
    let av = AvScenario::new(3, 5, 1);
    bench_make_sample(c, &av, shared_pretrained_camera(), N);
    let ecg = EcgScenario::new(3, 40, N, 10);
    bench_make_sample(c, &ecg, &pretrained_classifier(&ecg, 3), N);
    bench_make_sample(c, &NewsScenario::new(3, N as u64), &(), N);
    let highway = HighwayScenario::highway(3, N, 1);
    bench_make_sample(c, &highway, shared_pretrained_primary(), N);
}

/// The layers under crowded association and `multibox`, per density
/// of the crowded ladder (`CROWD_SIZES`, both above the grid cutoff)
/// over the same 4 clutter-heavy windows of 3 frames (seed 11), all 12
/// frames or 8 adjacent frame pairs per iteration:
/// `geom/grid_build/<n>` builds a `GridIndex2D` over each frame,
/// `geom/iou_pairs/<n>` matches each frame's boxes against the next
/// frame's at the association threshold, `geom/overlap_triples/<n>`
/// counts each frame's `multibox` triples, and `prepare/crowd_window/<n>`
/// runs the video `Prepare` (association and run counting) on each
/// window. These windows are disjoint, so every lookup of the thread's
/// pair memo misses and the group times the miss path.
/// `prepare/crowd_stream/<n>` runs one video `Prepare` over 12
/// consecutive sliding windows of one seed-11 stream (frames 0–13,
/// centers 1–12) in stream order, as the crowded workload scores a
/// stream: each window's first frame pair is its predecessor's last, so
/// 11 of the 24 lookups per iteration hit. `geom/iou_pairs/street`
/// matches every adjacent frame pair of the 100 `prepare/video_window`
/// windows the same way; a street frame holds too few boxes for the
/// grid, so it times the reference scan that street association runs.
fn crowd_cost(c: &mut Criterion) {
    let crowds: Vec<(usize, Vec<VideoWindow>)> = CROWD_SIZES
        .iter()
        .map(|&n| (n, crowd_windows(n, 4, 11)))
        .collect();
    let mut group = c.benchmark_group("geom/grid_build");
    for (n, windows) in &crowds {
        let frames: Vec<Vec<BBox2D>> = windows
            .iter()
            .flat_map(|w| w.frames.iter().map(frame_boxes))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &frames, |b, frames| {
            b.iter(|| {
                for boxes in frames {
                    criterion::black_box(GridIndex2D::build(boxes));
                }
            });
        });
    }
    group.finish();
    let mut group = c.benchmark_group("geom/iou_pairs");
    let street = make_windows(100);
    let ladder = crowds.iter().map(|(n, windows)| (n.to_string(), windows));
    for (id, windows) in std::iter::once(("street".to_string(), &street)).chain(ladder) {
        let pairs: Vec<(Vec<BBox2D>, Vec<BBox2D>)> = windows
            .iter()
            .flat_map(|w| {
                w.frames
                    .windows(2)
                    .map(|f| (frame_boxes(&f[0]), frame_boxes(&f[1])))
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(id), &pairs, |b, pairs| {
            let mut out = Vec::new();
            b.iter(|| {
                for (anchors, queries) in pairs {
                    matchers::iou_pairs(anchors, queries, TRACK_IOU, &mut out);
                    criterion::black_box(&out);
                }
            });
        });
    }
    group.finish();
    let mut group = c.benchmark_group("geom/overlap_triples");
    for (n, windows) in &crowds {
        let frames: Vec<(Vec<BBox2D>, Vec<usize>)> = windows
            .iter()
            .flat_map(|w| w.frames.iter())
            .map(|f| (frame_boxes(f), f.dets.iter().map(|d| d.class).collect()))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &frames, |b, frames| {
            b.iter(|| {
                for (boxes, classes) in frames {
                    criterion::black_box(matchers::overlap_triples(boxes, classes, MULTIBOX_IOU));
                }
            });
        });
    }
    group.finish();
    for (n, windows) in &crowds {
        bench_prepare(
            c,
            &format!("prepare/crowd_window/{n}"),
            &VideoPrepare::new(FLICKER_T),
            windows,
        );
    }
    for &n in &CROWD_SIZES {
        let windows = sliding_windows(&crowd_stream(n, 14, 11));
        bench_prepare(
            c,
            &format!("prepare/crowd_stream/{n}"),
            &VideoPrepare::new(FLICKER_T),
            &windows[1..13],
        );
    }
}

/// `AssertionDb` recording as a service session does it: each row goes
/// in with `record_row`, then `retain_recent(32)` evicts all but the
/// latest 32 samples (the service's retention in the soak benchmark).
/// Per iteration, 1,000 rows as wide as the video set, with the first
/// assertion firing on every third row and the second on every seventh.
fn record_cost(c: &mut Criterion) {
    const RETAINED: usize = 32;
    let rows: Vec<[f64; 3]> = (0..1_000)
        .map(|i| [f64::from(i % 3 == 0), f64::from(i % 7 == 0), 0.0])
        .collect();
    let mut group = c.benchmark_group("db/record_row_retain_recent");
    group.bench_with_input(BenchmarkId::from_parameter(RETAINED), &rows, |b, rows| {
        b.iter_batched(
            AssertionDb::new,
            |mut db| {
                for (i, row) in rows.iter().enumerate() {
                    db.record_row(i, row);
                    db.retain_recent(RETAINED);
                }
                db
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = monitor_throughput, stream_monitor_throughput, consistency_scaling, tracker_cost,
        prepare_cost, make_sample_cost, record_cost, crowd_cost
}
criterion_main!(benches);
