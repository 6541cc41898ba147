//! `ConsistencyEngine::temporal_violations` against `check`.
//!
//! The video and fusion preparers read only presence transitions, so
//! they feed each frame's boxes to an `IouAssociator` and run the
//! temporal pass over the bare track ids instead of the full check; the
//! self-contained reference assertions still track with `track_window`
//! and call `check`. These properties hold the two to the same temporal
//! violations, element for element, for the deployed specs (track ids,
//! ECG rhythm classes, and news' tuple `(scene, slot)` ids), and hold
//! both to the presence-run definition of a temporal violation; the
//! tests at the end hold `VideoPrepare` and `FusionPrepare` to the
//! reference on stream and crowded windows.

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
use omg_domains::{FusionPrepare, VideoPrepare, VideoWindow};
use omg_geom::matchers::INDEX_MIN;
use omg_geom::BBox2D;
use omg_scenario::Scenario;
use omg_sim::news::NewsFace;
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
    let fast = engine.temporal_violations(w);
    prop_assert_eq!(&fast, &temporal_of_check(&engine, w));
    prop_assert_eq!(&fast, &by_definition(&spec, w, t));
    let untimed = ConsistencyEngine::new(spec);
    prop_assert!(untimed.temporal_violations(w).is_empty());
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
/// exactly `T`, and attribute mismatches that `check` reports and the
/// temporal pass leaves out.
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
        mixed += usize::from(engine.check(&w).len() > engine.temporal_violations(&w).len());
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
        let fired = engine.temporal_violations(&w);
        assert_eq!(fired, temporal_of_check(&engine, &w));
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
    assert!(engine.temporal_violations(&w).is_empty());
    assert_eq!(engine.check(&w).len(), 1, "the class mismatch still fires");
    assert!(engine
        .temporal_violations(&ConsistencyWindow::new())
        .is_empty());
}

/// The reference for a prepared video window: the `TemporalTransition`
/// entries of the full check over the tracker's window.
fn reference_violations(w: &VideoWindow, t: f64) -> Vec<Violation<u64>> {
    let engine = ConsistencyEngine::new(VideoTrackSpec).with_temporal_threshold(t);
    temporal_of_check(&engine, &track_window(w))
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

/// Asserts each prepared violation list equals the reference on its
/// video window, and that some window fires at all.
fn assert_prepared_equals_reference<'a>(
    cases: impl IntoIterator<Item = (&'a VideoWindow, Vec<Violation<u64>>)>,
) {
    let mut fired = 0;
    for (i, (w, prepared)) in cases.into_iter().enumerate() {
        let want = reference_violations(w, FLICKER_T);
        assert_eq!(prepared, want, "window {i}");
        fired += want.len();
    }
    assert!(fired > 0, "no window fired");
}

#[test]
fn video_prepare_equals_check_over_track_window() {
    let prepare = VideoPrepare::new(FLICKER_T);
    for windows in [monitor_windows(150, 3), crowded_windows()] {
        assert_prepared_equals_reference(
            windows.iter().map(|w| (w, prepare.prepare(w).violations)),
        );
    }
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
    for windows in [stream, crowded] {
        let views: Vec<VideoWindow> = windows.iter().map(primary_view).collect();
        assert_prepared_equals_reference(
            views
                .iter()
                .zip(&windows)
                .map(|(view, w)| (view, prepare.prepare(w).violations)),
        );
    }
}
