//! Cross-crate consistency-API round trip: associator identifiers feed the
//! consistency engine, violations become corrections, corrections become
//! valid training data.

use omg_core::consistency::{ConsistencyEngine, Correction, Violation};
use omg_domains::helpers::{track_window, VideoTrackSpec};
use omg_domains::weak::{ecg_weak_labels, interpolate_track_box};
use omg_domains::{VideoFrame, VideoWindow};
use omg_eval::ScoredBox;
use omg_geom::BBox2D;

fn car(x: f64, class: usize) -> ScoredBox {
    ScoredBox {
        bbox: BBox2D::new(x, 100.0, x + 80.0, 160.0).unwrap(),
        class,
        score: 0.9,
    }
}

#[test]
fn flicker_produces_an_interpolated_add_correction() {
    // A car moves steadily but the detector misses frame 2.
    let frames = vec![
        VideoFrame {
            index: 0,
            time: 0.0,
            dets: vec![car(100.0, 0)],
        },
        VideoFrame {
            index: 1,
            time: 0.1,
            dets: vec![car(110.0, 0)],
        },
        VideoFrame {
            index: 2,
            time: 0.2,
            dets: vec![],
        },
        VideoFrame {
            index: 3,
            time: 0.3,
            dets: vec![car(130.0, 0)],
        },
        VideoFrame {
            index: 4,
            time: 0.4,
            dets: vec![car(140.0, 0)],
        },
    ];
    let window = VideoWindow::new(frames, 2);
    let tracked = track_window(&window);
    let engine = ConsistencyEngine::new(VideoTrackSpec).with_temporal_threshold(0.45);

    let violations = engine.check(&tracked);
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::TemporalTransition { gap: true, .. })));

    // Corrections synthesize the missing box by interpolation, with the
    // weak-supervision rule's own function.
    let corrections = engine.corrections(&tracked, interpolate_track_box);
    let adds: Vec<_> = corrections
        .iter()
        .filter_map(|c| match c {
            Correction::Add {
                time_index, output, ..
            } => Some((*time_index, output.bbox)),
            _ => None,
        })
        .collect();
    assert_eq!(adds.len(), 1);
    let (ti, bbox) = adds[0];
    assert_eq!(ti, 2);
    // The interpolated box sits midway between frames 1 and 3.
    assert!(
        (bbox.x1() - 120.0).abs() < 1.0,
        "interpolated x1 {}",
        bbox.x1()
    );
}

#[test]
fn class_flip_produces_majority_vote_correction() {
    let frames = vec![
        VideoFrame {
            index: 0,
            time: 0.0,
            dets: vec![car(100.0, 0)],
        },
        VideoFrame {
            index: 1,
            time: 0.1,
            dets: vec![car(110.0, 1)],
        }, // flip!
        VideoFrame {
            index: 2,
            time: 0.2,
            dets: vec![car(120.0, 0)],
        },
    ];
    let window = VideoWindow::new(frames, 1);
    let tracked = track_window(&window);
    let engine = ConsistencyEngine::new(VideoTrackSpec);
    let corrections = engine.corrections(&tracked, |_, _, _| None);
    let set_attrs: Vec<_> = corrections
        .iter()
        .filter_map(|c| match c {
            Correction::SetAttr {
                time_index, value, ..
            } => Some((*time_index, value.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(set_attrs.len(), 1);
    assert_eq!(set_attrs[0].0, 1);
    assert_eq!(set_attrs[0].1.as_int(), Some(0), "majority class wins");
}

#[test]
fn ecg_corrections_match_temporal_violations() {
    let times: Vec<f64> = (0..9).map(|i| i as f64 * 10.0).collect();
    let preds = vec![0, 0, 0, 1, 0, 0, 2, 2, 2];
    // Class-1 blip at index 3 is corrected; the trailing class-2 run
    // touches the boundary and is left alone.
    let weak = ecg_weak_labels(&times, &preds, 30.0);
    assert_eq!(weak, vec![(3, 0)]);
}
