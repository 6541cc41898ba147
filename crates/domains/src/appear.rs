//! The `appear` assertion (video analytics, Table 1).
//!
//! The dual of `flicker`: an object that *appears and disappears* within
//! `T` seconds is most likely a spurious detection (a false positive
//! blinking into existence). Implemented with the consistency API:
//! identifier = tracker-assigned track id, temporal threshold `T`; this
//! assertion counts the *blip-type* temporal violations.

use omg_core::consistency::{ConsistencyEngine, ConsistencyWindow, Violation};
use omg_core::{FnAssertion, Severity};

use crate::helpers::{track_window, TrackedBox, VideoTrackSpec};
use crate::VideoWindow;

// BEGIN ASSERTION
/// Counts the blip-type temporal violations on an already-tracked window —
/// the core of `appear`, shared by the self-contained reference path and
/// the prepared streaming path (one tracking per window for the whole
/// assertion set).
fn appear_severity(tracked: &ConsistencyWindow<TrackedBox>, t: f64) -> Severity {
    let engine = ConsistencyEngine::new(VideoTrackSpec).with_temporal_threshold(t);
    let blips = engine
        .check(tracked)
        .into_iter()
        .filter(|v| matches!(v, Violation::TemporalTransition { gap: false, .. }))
        .count();
    Severity::from_count(blips)
}

/// Builds the `appear` assertion with temporal threshold `t` seconds.
pub fn appear_assertion(t: f64) -> FnAssertion<VideoWindow> {
    FnAssertion::new("appear", move |window: &VideoWindow| {
        appear_severity(&track_window(window), t)
    })
}
// END ASSERTION

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VideoFrame;
    use omg_core::Assertion;
    use omg_eval::ScoredBox;
    use omg_geom::BBox2D;

    fn frame(i: u64, present: bool) -> VideoFrame {
        let dets = if present {
            vec![ScoredBox {
                bbox: BBox2D::new(0.0, 0.0, 50.0, 50.0).unwrap(),
                class: 0,
                score: 0.9,
            }]
        } else {
            vec![]
        };
        VideoFrame {
            index: i,
            time: i as f64 * 0.1,
            dets,
        }
    }

    fn window(pattern: &[bool]) -> VideoWindow {
        let frames = pattern
            .iter()
            .enumerate()
            .map(|(i, &p)| frame(i as u64, p))
            .collect();
        VideoWindow::new(frames, pattern.len() / 2)
    }

    #[test]
    fn blip_fires() {
        let a = appear_assertion(0.45);
        let sev = a.check(&window(&[false, false, true, false, false]));
        assert!(sev.fired());
        assert_eq!(sev.value(), 1.0);
    }

    #[test]
    fn stable_object_does_not_fire() {
        let a = appear_assertion(0.45);
        assert!(!a.check(&window(&[true, true, true, true, true])).fired());
    }

    #[test]
    fn flicker_gap_does_not_fire_appear() {
        let a = appear_assertion(0.45);
        assert!(!a.check(&window(&[true, true, false, true, true])).fired());
    }

    #[test]
    fn long_lived_object_entering_is_fine() {
        // An object that appears and stays: one transition only.
        let a = appear_assertion(0.45);
        assert!(!a.check(&window(&[false, false, true, true, true])).fired());
    }

    #[test]
    fn long_visit_does_not_fire() {
        // Present for longer than T between two absences: legitimate.
        let a = appear_assertion(0.25);
        assert!(!a.check(&window(&[false, true, true, true, false])).fired());
    }
}
