//! The highway **multi-sensor fusion** assertions — the fifth deployed
//! scenario, built entirely from existing primitives to prove the
//! scenario engine's abstraction claim.
//!
//! Two independent 2D detectors (think a primary camera and a thermal /
//! radar-derived secondary channel) watch the same highway stream. Two
//! assertions monitor the primary model:
//!
//! * `fusion-agree` — the 2D analogue of the AV `agree` assertion
//!   (§2.1's `sensor_agreement`): count secondary boxes on the center
//!   frame that no primary detection overlaps. If it fires, at least one
//!   sensor is wrong.
//! * `fusion-flicker` — the video consistency assertion (§4) applied to
//!   the primary channel: a tracked object that disappears and
//!   reappears within `T` seconds indicates missed detections.
//!
//! The shared per-window preparation is the video set's: one association
//! pass over the primary channel that counts its short presence runs
//! ([`VideoPrep`]), so the streaming engine associates the primary boxes
//! once per window for the whole set.

use omg_core::stream::Prepare;
use omg_core::{AssertionSet, FnAssertion, Severity};
use omg_eval::ScoredBox;

use crate::helpers::{count_no_overlap, track_window};
use crate::prepared::count_short_presence_runs;
use crate::{flicker, VideoFrame, VideoPrep, VideoWindow};

/// IoU at or above which a secondary box counts as confirmed by a
/// primary detection (mirrors [`crate::agree::AGREE_IOU`]).
const FUSION_IOU: f64 = 0.10;

/// One time-aligned frame of both sensors' model outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionFrame {
    /// Frame index in the stream.
    pub index: u64,
    /// Timestamp in seconds.
    pub time: f64,
    /// The primary (monitored, trainable) detector's boxes.
    pub primary: Vec<ScoredBox>,
    /// The secondary (fixed) detector's boxes.
    pub secondary: Vec<ScoredBox>,
}

/// A short window of consecutive fusion frames — the sample type of the
/// fusion assertions, mirroring [`VideoWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct FusionWindow {
    /// Consecutive frames in time order.
    pub frames: Vec<FusionFrame>,
    /// Index (within `frames`) of the frame this window is *about*.
    pub center: usize,
}

impl FusionWindow {
    /// Builds a window.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, `center` is out of range, or the
    /// timestamps are not strictly increasing.
    pub fn new(frames: Vec<FusionFrame>, center: usize) -> Self {
        assert!(!frames.is_empty(), "window needs at least one frame");
        assert!(center < frames.len(), "center out of range");
        // PANIC: windows(2) yields exactly-two-element slices.
        for w in frames.windows(2) {
            assert!(
                w[1].time > w[0].time,
                "frame timestamps must be strictly increasing"
            );
        }
        Self { frames, center }
    }

    /// The frame the window is centered on.
    pub fn center_frame(&self) -> &FusionFrame {
        // PANIC: center < frames.len() was asserted in new().
        &self.frames[self.center]
    }
}

/// Projects the window's primary channel as a [`VideoWindow`], the
/// sample type the video tracking/consistency machinery runs over.
pub fn primary_view(window: &FusionWindow) -> VideoWindow {
    let frames = window
        .frames
        .iter()
        .map(|f| VideoFrame {
            index: f.index,
            time: f.time,
            dets: f.primary.clone(),
        })
        .collect();
    VideoWindow::new(frames, window.center)
}

/// Counts secondary boxes on the center frame that no primary detection
/// overlaps — the core of `fusion-agree`, shared by the reference and
/// prepared paths.
fn fusion_agree_severity(frame: &FusionFrame) -> Severity {
    let primary_boxes: Vec<_> = frame.primary.iter().map(|d| d.bbox).collect();
    let secondary_boxes: Vec<_> = frame.secondary.iter().map(|s| s.bbox).collect();
    Severity::from_count(count_no_overlap(
        &secondary_boxes,
        &primary_boxes,
        FUSION_IOU,
    ))
}

/// Builds the `fusion-agree` assertion (cross-sensor agreement on the
/// window's center frame).
fn fusion_agree_assertion() -> FnAssertion<FusionWindow> {
    FnAssertion::new("fusion-agree", |w: &FusionWindow| {
        fusion_agree_severity(w.center_frame())
    })
}

/// Builds the `fusion-flicker` assertion: the video `flicker` severity
/// (gap-type temporal consistency violations at threshold `t` seconds)
/// over the primary channel.
fn fusion_flicker_assertion(t: f64) -> FnAssertion<FusionWindow> {
    FnAssertion::new("fusion-flicker", move |w: &FusionWindow| {
        flicker::flicker_severity(&track_window(&primary_view(w)), t)
    })
}

/// Registers the two fusion assertions on a fresh set, reference path.
pub fn fusion_assertion_set(flicker_t: f64) -> AssertionSet<FusionWindow> {
    let mut set = AssertionSet::new();
    set.add(fusion_agree_assertion());
    set.add(fusion_flicker_assertion(flicker_t));
    set
}

/// Prepares a [`FusionWindow`]: the [`crate::VideoPrepare`] derivation
/// over the primary channel, read in place: one
/// [`IouAssociator`](omg_track::IouAssociator) pass over each frame's
/// primary boxes that counts the short presence runs of the issued
/// track ids.
///
/// Like [`crate::VideoPrepare`], it runs on the calling thread's
/// associator, buffers and memo of crowded adjacent-frame candidate
/// pairs, which the two preparers share; the counts are the same
/// whether the memo hits or misses.
#[derive(Debug)]
pub struct FusionPrepare {
    t: f64,
}

impl FusionPrepare {
    /// Creates the preparer for a fusion set built with the same
    /// temporal threshold `t` (seconds).
    pub fn new(t: f64) -> Self {
        Self { t }
    }
}

impl Prepare<FusionWindow> for FusionPrepare {
    type Prepared = VideoPrep;

    fn prepare(&self, window: &FusionWindow) -> VideoPrep {
        let frames = window.frames.iter().map(|f| (f.time, f.primary.as_slice()));
        count_short_presence_runs(frames, self.t)
    }
}

/// The fusion assertion set with shared preparation: same assertions,
/// names, and severities as [`fusion_assertion_set`], but
/// `fusion-flicker` reads the gaps of one [`VideoPrep`] per window
/// instead of re-running the association (`fusion-agree` needs only the
/// center frame and keeps its plain check).
pub fn fusion_prepared_assertion_set(flicker_t: f64) -> AssertionSet<FusionWindow, VideoPrep> {
    let mut set = AssertionSet::new();
    set.add(fusion_agree_assertion());
    set.add_prepared(
        fusion_flicker_assertion(flicker_t),
        move |_w: &FusionWindow, prep: &VideoPrep| {
            assert!(
                prep.t == flicker_t,
                "fusion preparation threshold {} != assertion set threshold {flicker_t}",
                prep.t
            );
            Severity::from_count(prep.gaps)
        },
    );
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_core::Assertion;
    use omg_geom::BBox2D;

    fn sb(x: f64, score: f64) -> ScoredBox {
        ScoredBox {
            bbox: BBox2D::new(x, 0.0, x + 50.0, 40.0).unwrap(),
            class: 0,
            score,
        }
    }

    fn frame(i: u64, primary: Vec<ScoredBox>, secondary: Vec<ScoredBox>) -> FusionFrame {
        FusionFrame {
            index: i,
            time: i as f64 * 0.1,
            primary,
            secondary,
        }
    }

    #[test]
    fn agreement_abstains_when_sensors_agree() {
        let w = FusionWindow::new(vec![frame(0, vec![sb(10.0, 0.9)], vec![sb(12.0, 0.8)])], 0);
        assert!(!fusion_agree_assertion().check(&w).fired());
    }

    #[test]
    fn primary_miss_fires_agreement_per_unmatched_box() {
        let w = FusionWindow::new(
            vec![frame(0, vec![], vec![sb(10.0, 0.8), sb(300.0, 0.7)])],
            0,
        );
        let sev = fusion_agree_assertion().check(&w);
        assert_eq!(sev.value(), 2.0);
    }

    #[test]
    fn primary_flicker_fires_through_the_fusion_view() {
        let frames = vec![
            frame(0, vec![sb(0.0, 0.9)], vec![]),
            frame(1, vec![], vec![]),
            frame(2, vec![sb(2.0, 0.9)], vec![]),
        ];
        let w = FusionWindow::new(frames, 1);
        let sev = fusion_flicker_assertion(0.45).check(&w);
        assert_eq!(sev.value(), 1.0, "a 0.2 s gap is a flicker at T=0.45 s");
    }

    #[test]
    fn prepared_set_mirrors_plain_set() {
        let plain = fusion_assertion_set(0.45);
        let prepared = fusion_prepared_assertion_set(0.45);
        assert_eq!(plain.names(), prepared.names());
        let agree = prepared.id_of("fusion-agree").unwrap();
        let flicker = prepared.id_of("fusion-flicker").unwrap();
        assert!(!prepared.has_prepared(agree), "agree needs no tracking");
        assert!(prepared.has_prepared(flicker));
        // Same severities through both paths on a flickering window.
        let frames = vec![
            frame(0, vec![sb(0.0, 0.9)], vec![sb(200.0, 0.8)]),
            frame(1, vec![], vec![]),
            frame(2, vec![sb(2.0, 0.9)], vec![]),
        ];
        let w = FusionWindow::new(frames, 1);
        let prep = FusionPrepare::new(0.45).prepare(&w);
        assert_eq!(prepared.check_all_prepared(&w, &prep), plain.check_all(&w));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn prepared_set_rejects_threshold_mismatch() {
        let prepared = fusion_prepared_assertion_set(0.45);
        let w = FusionWindow::new(vec![frame(0, vec![], vec![])], 0);
        let prep = FusionPrepare::new(0.9).prepare(&w);
        prepared.check_all_prepared(&w, &prep);
    }

    #[test]
    #[should_panic(expected = "center out of range")]
    fn bad_center_rejected() {
        FusionWindow::new(vec![frame(0, vec![], vec![])], 1);
    }
}
