//! The temporal half of `ConsistencyEngine::check`, and the counts the
//! video and fusion preparers take straight off the associator's ids.
//!
//! `flicker`, `appear` and `fusion-flicker` read only how many short
//! presence runs of each kind a tracked window has, so `VideoPrepare`
//! and `FusionPrepare` feed each frame's boxes to an `IouAssociator` and
//! count gaps and blips off the issued ids, with no id window and no
//! violation list; the self-contained reference assertions still track
//! with `track_window` and call `check`. The properties first hold
//! `check`'s temporal entries to the presence-run definition of a
//! temporal violation for the deployed specs (track ids, ECG rhythm
//! classes, and news' tuple `(scene, slot)` ids). The tests after them
//! hold the prepared `(gaps, blips)` to the per-kind counts of `check`
//! over `track_window`: on stream windows, on 300-box crowded windows,
//! on sliding crowd windows that share frame pairs through the thread's
//! pair memo, and on generated windows that reach what the
//! streams miss (windows shorter than 3, runs at the edges, a gap of
//! exactly `T`, and an absence long enough to give an object a new id).

use std::collections::BTreeMap;

use omg_bench::crowd::crowd_windows;
use omg_bench::highway::{shared_pretrained_primary, HighwayScenario, FUSION_WINDOW_HALF};
use omg_bench::video::{monitor_windows, FLICKER_T};
use omg_core::consistency::{ConsistencyEngine, ConsistencySpec, ConsistencyWindow, Violation};
use omg_core::stream::Prepare;
use omg_domains::ecg::EcgSpec;
use omg_domains::fusion::{primary_view, FusionFrame, FusionWindow};
use omg_domains::helpers::{track_window, TrackedBox, VideoTrackSpec};
use omg_domains::news::NewsSpec;
use omg_domains::{FusionPrepare, VideoFrame, VideoPrep, VideoPrepare, VideoWindow};
use omg_eval::ScoredBox;
use omg_geom::matchers::INDEX_MIN;
use omg_geom::BBox2D;
use omg_scenario::Scenario;
use omg_sim::news::NewsFace;
use omg_tests::sliding_crowd_windows;
use proptest::prelude::*;

/// One window's worth of raw outputs: per invocation, a time step in
/// quarter seconds and `(id, attribute)` draws. Times on a quarter-second
/// grid make a transition gap of exactly `T` common, and exact in `f64`.
type Draws = Vec<(u32, Vec<(usize, usize)>)>;

fn draws(max_len: usize) -> impl Strategy<Value = Draws> {
    proptest::collection::vec(
        (
            1u32..5,
            proptest::collection::vec((0usize..5, 0usize..3), 0..5),
        ),
        0..max_len,
    )
}

fn window<O>(draws: &Draws, output: impl Fn(usize, usize) -> O) -> ConsistencyWindow<O> {
    let mut w = ConsistencyWindow::new();
    let mut quarters = 0u32;
    for (step, outs) in draws {
        quarters += step;
        w.push(
            f64::from(quarters) * 0.25,
            outs.iter().map(|&(id, attr)| output(id, attr)).collect(),
        );
    }
    w
}

fn tracked(id: usize, class: usize) -> TrackedBox {
    TrackedBox {
        track: id as u64,
        class,
        bbox: BBox2D::new(0.0, 0.0, 10.0, 10.0).unwrap(),
    }
}

fn face(slot: usize, hair: usize) -> NewsFace {
    NewsFace {
        scene: (slot % 2) as u64,
        slot,
        time: 0.0,
        identity: 1,
        gender: 0,
        hair: hair as u8,
        true_identity: 1,
    }
}

/// The temporal violations by definition: per identifier in id order,
/// its presence vector over the window, then every maximal constant run
/// that touches neither edge and whose bounding transitions lie less
/// than `t` apart, in position order.
fn by_definition<P: ConsistencySpec>(
    spec: &P,
    w: &ConsistencyWindow<P::Output>,
    t: f64,
) -> Vec<Violation<P::Id>> {
    let n = w.len();
    let mut presence: BTreeMap<P::Id, Vec<bool>> = BTreeMap::new();
    for ti in 0..n {
        for out in w.outputs_at(ti) {
            presence
                .entry(spec.id(out))
                .or_insert_with(|| vec![false; n])[ti] = true;
        }
    }
    let mut out = Vec::new();
    for (id, present) in presence {
        let mut start = 0;
        for i in 1..=n {
            if i == n || present[i] != present[start] {
                if start > 0 && i < n && w.time(i) - w.time(start) < t {
                    out.push(Violation::TemporalTransition {
                        id: id.clone(),
                        first: w.time(start),
                        second: w.time(i),
                        gap: !present[start],
                    });
                }
                start = i;
            }
        }
    }
    out
}

/// `check`'s temporal entries, in order.
fn temporal_of_check<P: ConsistencySpec>(
    engine: &ConsistencyEngine<P>,
    w: &ConsistencyWindow<P::Output>,
) -> Vec<Violation<P::Id>> {
    engine
        .check(w)
        .into_iter()
        .filter(Violation::is_temporal)
        .collect()
}

fn assert_equivalent<P: ConsistencySpec + Clone>(
    spec: P,
    w: &ConsistencyWindow<P::Output>,
    t: f64,
) -> TestCaseResult {
    let engine = ConsistencyEngine::new(spec.clone()).with_temporal_threshold(t);
    prop_assert_eq!(temporal_of_check(&engine, w), by_definition(&spec, w, t));
    let untimed = ConsistencyEngine::new(spec);
    prop_assert!(temporal_of_check(&untimed, w).is_empty());
    Ok(())
}

proptest! {
    #[test]
    fn video_track_spec_temporal_pass_equals_check(d in draws(9), t in 1u32..5) {
        let t = f64::from(t) * 0.25;
        assert_equivalent(VideoTrackSpec, &window(&d, tracked), t)?;
    }

    #[test]
    fn ecg_spec_temporal_pass_equals_check(d in draws(9), t in 1u32..5) {
        let t = f64::from(t) * 0.25;
        assert_equivalent(EcgSpec, &window(&d, |id, _| id), t)?;
    }

    #[test]
    fn tuple_id_spec_temporal_pass_equals_check(d in draws(9), t in 1u32..5) {
        let t = f64::from(t) * 0.25;
        assert_equivalent(NewsSpec, &window(&d, face), t)?;
    }
}

/// The generated windows cover what the properties promise: windows
/// shorter than 3, runs touching either edge, uneven steps, gaps of
/// exactly `T`, and attribute mismatches that `check` reports next to
/// its temporal entries.
#[test]
fn generated_windows_cover_the_edge_cases() {
    let mut rng = proptest::case_rng("coverage", 0);
    let (mut short, mut edge, mut uneven, mut exact_t, mut mixed) = (0, 0, 0, 0, 0);
    for _ in 0..200 {
        let d = draws(9).generate(&mut rng);
        let w = window(&d, tracked);
        short += usize::from(w.len() < 3);
        let first_ids: Vec<usize> = d
            .first()
            .map_or(vec![], |o| o.1.iter().map(|x| x.0).collect());
        let last_ids: Vec<usize> = d
            .last()
            .map_or(vec![], |o| o.1.iter().map(|x| x.0).collect());
        edge += usize::from(!first_ids.is_empty() && !last_ids.is_empty());
        uneven += usize::from(d.windows(2).any(|s| s[0].0 != s[1].0));
        exact_t += usize::from(d.iter().skip(1).any(|s| s.0 == 2));
        let engine = ConsistencyEngine::new(VideoTrackSpec).with_temporal_threshold(0.5);
        mixed += usize::from(engine.check(&w).len() > temporal_of_check(&engine, &w).len());
    }
    for (name, hits) in [
        ("short", short),
        ("edge", edge),
        ("uneven", uneven),
        ("exact_t", exact_t),
        ("mixed", mixed),
    ] {
        assert!(hits >= 20, "{name}: {hits} of 200");
    }
}

#[test]
fn gap_of_exactly_t_does_not_fire() {
    let t = 0.5;
    for spec_t in [t, t + 0.25] {
        let engine = ConsistencyEngine::new(EcgSpec).with_temporal_threshold(spec_t);
        // Class 0 is absent over [0.5, 1.0): its two transitions are
        // exactly 0.5 s apart; class 1 blips for the same span.
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![0usize]),
            (0.5, vec![1usize]),
            (1.0, vec![0usize]),
        ]);
        let fired = temporal_of_check(&engine, &w);
        assert_eq!(fired.len(), if spec_t > t { 2 } else { 0 }, "{fired:?}");
    }
}

#[test]
fn no_threshold_gives_no_temporal_violations() {
    let engine = ConsistencyEngine::new(VideoTrackSpec);
    let w = ConsistencyWindow::from_pairs(vec![
        (0.0, vec![tracked(1, 0)]),
        (0.1, vec![]),
        (0.2, vec![tracked(1, 1)]),
    ]);
    assert!(temporal_of_check(&engine, &w).is_empty());
    assert_eq!(engine.check(&w).len(), 1, "the class mismatch still fires");
    assert!(engine.check(&ConsistencyWindow::new()).is_empty());
}

/// The reference for a prepared video window: the per-kind counts
/// `(gaps, blips)` of the `TemporalTransition` entries of the full check
/// over the tracker's window.
fn reference_counts(w: &VideoWindow, t: f64) -> (usize, usize) {
    let engine = ConsistencyEngine::new(VideoTrackSpec).with_temporal_threshold(t);
    let (mut gaps, mut blips) = (0, 0);
    for v in temporal_of_check(&engine, &track_window(w)) {
        match v {
            Violation::TemporalTransition { gap: true, .. } => gaps += 1,
            _ => blips += 1,
        }
    }
    (gaps, blips)
}

/// Crowded windows: 300 boxes per frame, above the matchers' grid-index
/// cutoff, so association takes the indexed path. Crowd objects persist,
/// so every seventh box is dropped from the middle frame to make
/// flickers; the tracks and their order stay the matcher's to decide.
fn crowded_windows() -> Vec<VideoWindow> {
    let mut windows = crowd_windows(300, 6, 23);
    for w in &mut windows {
        let mut i = 0;
        w.frames[1].dets.retain(|_| {
            i += 1;
            i % 7 != 0
        });
        assert!(w.frames.iter().all(|f| f.dets.len() > INDEX_MIN));
    }
    windows
}

/// Asserts each prepared artifact's `(gaps, blips)` equals the reference
/// counts on its video window, and returns the totals.
fn assert_prepared_equals_reference<'a>(
    cases: impl IntoIterator<Item = (&'a VideoWindow, VideoPrep)>,
) -> (usize, usize) {
    let (mut gaps, mut blips) = (0, 0);
    for (i, (w, prepared)) in cases.into_iter().enumerate() {
        let want = reference_counts(w, FLICKER_T);
        assert_eq!(prepared.t, FLICKER_T, "window {i}");
        assert_eq!((prepared.gaps, prepared.blips), want, "window {i}");
        gaps += want.0;
        blips += want.1;
    }
    (gaps, blips)
}

#[test]
fn video_prepare_equals_check_over_track_window() {
    let prepare = VideoPrepare::new(FLICKER_T);
    let count = |windows: &[VideoWindow]| {
        assert_prepared_equals_reference(windows.iter().map(|w| (w, prepare.prepare(w))))
    };
    let (gaps, blips) = count(&monitor_windows(150, 3));
    assert!(gaps > 0 && blips > 0, "stream: {gaps} gaps, {blips} blips");
    let (gaps, _) = count(&crowded_windows());
    assert!(gaps > 0, "crowded: no gap fired");
}

/// The same windows as fusion windows: the boxes as the primary channel,
/// next to a secondary channel the preparer must ignore.
fn as_fusion(w: &VideoWindow) -> FusionWindow {
    let frames = w
        .frames
        .iter()
        .map(|f| FusionFrame {
            index: f.index,
            time: f.time,
            primary: f.dets.clone(),
            secondary: f.dets.iter().rev().take(3).cloned().collect(),
        })
        .collect();
    FusionWindow::new(frames, w.center)
}

#[test]
fn fusion_prepare_equals_check_over_primary_view() {
    let scenario = HighwayScenario::highway(3, 150, 1);
    let items = scenario.run_model(shared_pretrained_primary());
    let stream: Vec<FusionWindow> = (0..items.len())
        .map(|i| {
            let lo = i.saturating_sub(FUSION_WINDOW_HALF);
            let hi = (i + FUSION_WINDOW_HALF + 1).min(items.len());
            scenario.make_sample(&items[lo..hi], i - lo)
        })
        .collect();
    let crowded: Vec<FusionWindow> = crowded_windows().iter().map(as_fusion).collect();
    let prepare = FusionPrepare::new(FLICKER_T);
    let count = |windows: &[FusionWindow]| {
        let views: Vec<VideoWindow> = windows.iter().map(primary_view).collect();
        assert_prepared_equals_reference(
            views
                .iter()
                .zip(windows)
                .map(|(view, w)| (view, prepare.prepare(w))),
        )
    };
    let (gaps, blips) = count(&stream);
    assert!(gaps > 0 && blips > 0, "stream: {gaps} gaps, {blips} blips");
    let (gaps, _) = count(&crowded);
    assert!(gaps > 0, "crowded: no gap fired");
}

/// Sliding crowd windows at 300 and 1,000 boxes, through one
/// `VideoPrepare` and one `FusionPrepare` reused across every window,
/// which share this thread's pair memo: in stream order each video
/// window's first adjacent pair is the one the fusion window before it
/// scanned last, so the memo hits, and each fusion window's misses; in
/// reverse and on a second pass it mostly misses, and a repeated frame
/// puts a same-anchors, other-queries lookup right after a store. Every
/// window's counts equal the reference's however the memo answers.
#[test]
fn prepared_counts_on_sliding_crowd_windows_hold_in_any_order() {
    for (boxes, n_frames) in [(300, 10), (1000, 7)] {
        let windows = sliding_crowd_windows(boxes, n_frames);
        let fusion: Vec<FusionWindow> = windows.iter().map(as_fusion).collect();
        let want: Vec<(usize, usize)> = windows
            .iter()
            .map(|w| reference_counts(w, FLICKER_T))
            .collect();
        assert!(want.iter().any(|&(g, _)| g > 0), "{boxes}: no gap fired");
        let n = windows.len();
        let video = VideoPrepare::new(FLICKER_T);
        let fusion_prepare = FusionPrepare::new(FLICKER_T);
        let orders: [(&str, Vec<usize>); 3] = [
            ("stream order", (0..n).collect()),
            ("reverse", (0..n).rev().collect()),
            ("twice", (0..n).chain(0..n).collect()),
        ];
        for (order, positions) in &orders {
            for &i in positions {
                let at = format!("{boxes} boxes, {order}, window {i}");
                let v = video.prepare(&windows[i]);
                assert_eq!((v.gaps, v.blips), want[i], "video, {at}");
                let f = fusion_prepare.prepare(&fusion[i]);
                assert_eq!((f.gaps, f.blips), want[i], "fusion, {at}");
            }
        }
    }
}

/// A generated tracked window: per frame, a time step in quarter
/// seconds; per object, a bit mask of the frames it is present in; and
/// the threshold in quarter seconds.
type TrackedDraw = (Vec<u32>, Vec<u16>, u32);

/// 1–9 frames with uneven quarter-second steps, 1–6 objects each present
/// in a drawn subset of the frames, and `T` in {0.25, 0.5, 0.75, 1.0}.
fn tracked_draw() -> impl Strategy<Value = TrackedDraw> {
    (
        proptest::collection::vec(1u32..5, 1..10),
        proptest::collection::vec(0u16..512, 1..7),
        1u32..5,
    )
}

/// Object `k`'s box: 50 px wide, 150 px from its neighbour's, so an
/// object only ever matches its own track.
fn object_box(k: usize) -> ScoredBox {
    let x = k as f64 * 200.0;
    ScoredBox {
        bbox: BBox2D::new(x, 0.0, x + 50.0, 50.0).unwrap(),
        class: 0,
        score: 0.9,
    }
}

/// Whether an object with presence mask `mask` is present in frame `i`.
fn present(mask: u16, i: usize) -> bool {
    mask & (1 << i) != 0
}

/// The draw as a video window, and its threshold in seconds.
fn tracked_window((steps, masks, t): &TrackedDraw) -> (VideoWindow, f64) {
    let mut quarters = 0u32;
    let frames = steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            quarters += step;
            VideoFrame {
                index: i as u64,
                time: f64::from(quarters) * 0.25,
                dets: (0..masks.len())
                    .filter(|&k| present(masks[k], i))
                    .map(object_box)
                    .collect(),
            }
        })
        .collect();
    (VideoWindow::new(frames, 0), f64::from(*t) * 0.25)
}

proptest! {
    /// Both preparers count, per kind, exactly the temporal entries of
    /// `check` over `track_window`.
    #[test]
    fn prepared_counts_equal_check_on_generated_windows(draw in tracked_draw()) {
        let (w, t) = tracked_window(&draw);
        let want = reference_counts(&w, t);
        let video = VideoPrepare::new(t).prepare(&w);
        prop_assert_eq!((video.gaps, video.blips), want);
        let fusion = FusionPrepare::new(t).prepare(&as_fusion(&w));
        prop_assert_eq!((fusion.gaps, fusion.blips), want);
    }
}

/// The property's own cases cover what the stream windows miss: windows
/// shorter than 3, runs touching either edge, an interior gap of exactly
/// `T`, and an absence long enough that the tracker gives the object a
/// new id. Both kinds of run fire, too.
#[test]
fn generated_tracked_windows_cover_the_edge_cases() {
    let cases = proptest::CASES;
    let (mut short, mut edge, mut exact_t, mut new_id, mut gaps, mut blips) = (0, 0, 0, 0, 0, 0);
    for case in 0..cases {
        let mut rng = proptest::case_rng("prepared_counts_equal_check_on_generated_windows", case);
        let draw = tracked_draw().generate(&mut rng);
        let (w, t) = tracked_window(&draw);
        let n = w.frames.len();
        let time = |i: usize| w.frames[i].time;
        short += usize::from(n < 3);
        // A present run that starts or ends at an edge and not at both.
        edge += usize::from(draw.1.iter().any(|&m| {
            let all = (0..n).all(|i| present(m, i));
            !all && (present(m, 0) || present(m, n - 1))
        }));
        // An absent run of one or two frames between two present frames
        // (the track survives it) whose transitions lie exactly `T` apart.
        exact_t += usize::from(draw.1.iter().any(|&m| {
            (1..n).any(|a| {
                (a..(a + 2).min(n - 1)).any(|b| {
                    present(m, a - 1)
                        && present(m, b + 1)
                        && (a..=b).all(|i| !present(m, i))
                        && time(b + 1) - time(a) == t
                })
            })
        }));
        let objects = draw
            .1
            .iter()
            .filter(|&&m| (0..n).any(|i| present(m, i)))
            .count();
        let tracks = track_window(&w)
            .iter()
            .flat_map(|(_, outs)| outs.iter().map(|o| o.track))
            .max()
            .map_or(0, |id| id as usize + 1);
        new_id += usize::from(tracks > objects);
        let (g, b) = reference_counts(&w, t);
        gaps += g;
        blips += b;
    }
    for (name, hits) in [
        ("short", short),
        ("edge", edge),
        ("exact_t", exact_t),
        ("new_id", new_id),
    ] {
        assert!(hits * 10 >= cases, "{name}: {hits} of {cases}");
    }
    assert!(gaps > 0 && blips > 0, "{gaps} gaps, {blips} blips");
}
