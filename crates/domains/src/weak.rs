//! Weak-supervision rules (§4.2, Table 4).
//!
//! Consistency corrections become training data with no human in the
//! loop:
//!
//! * **video** ([`video_weak_batch`]) — flicker gaps become imputed boxes
//!   (interpolated in time from the track's neighbours by
//!   [`interpolate_track_box`], Figure 1 bottom row) and
//!   weak detection positives; blips become weak background examples;
//!   multibox clusters become weak duplicate-suppression examples; class
//!   dissent becomes majority-vote class corrections;
//! * **AV** ([`av_weak_batch`]) — "a custom weak supervision rule that
//!   imputed boxes from the 3D predictions" (§5.1): unmatched LIDAR
//!   projections become weak camera-detection positives;
//! * **ECG** ([`ecg_weak_labels`]) — rhythm blips shorter than the 30 s
//!   guideline are relabeled with the surrounding rhythm (the majority /
//!   persistence correction).
//!
//! Appearance lookups (`signal_near`) model cropping the image patch at a
//! proposed box: the pixels exist even where the detector missed.

use omg_core::consistency::{ConsistencyEngine, ConsistencyWindow, Correction};
use omg_geom::BBox2D;
use omg_sim::av::AvSample;
use omg_sim::detector::{Detection, TrainingBatch};
use omg_sim::traffic::GtFrame;
use omg_sim::ObjectSignal;

use crate::helpers::{no_overlap, TrackedBox, VideoTrackSpec};
use crate::multibox::MULTIBOX_IOU;
use crate::{VideoFrame, VideoWindow};

/// Configuration of the video weak-supervision rule.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoWeakConfig {
    /// Temporal threshold `T` (seconds) for flicker/blip corrections.
    pub temporal_threshold: f64,
    /// Weight given to weak examples (below 1: weak labels are noisy).
    pub weight: f64,
    /// Whether `Remove` corrections on blips become weak *background*
    /// examples. Off by default: a blip can be a real object the detector
    /// missed on the surrounding frames, and teaching the detector to
    /// abstain there is actively harmful — the paper's video rule only
    /// *adds* boxes (750 flicker frames, §5.5).
    pub remove_blips: bool,
}

impl Default for VideoWeakConfig {
    fn default() -> Self {
        Self {
            temporal_threshold: 0.45,
            weight: 0.5,
            remove_blips: false,
        }
    }
}

/// The signal whose ground-truth box best overlaps `bbox` — the simulated
/// equivalent of cropping the image at a proposed box.
fn signal_near<'a>(signals: &'a [ObjectSignal], bbox: &BBox2D) -> Option<&'a ObjectSignal> {
    signals
        .iter()
        .map(|s| (s, s.bbox.iou(bbox)))
        .filter(|&(_, iou)| iou >= 0.1)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(s, _)| s)
}

/// Interpolates a missing box for track `id` at invocation `ti` from its
/// nearest observations on either side, weighted by time (the default
/// `WeakLabel` function for temporal violations, which
/// [`video_weak_batch`] passes to
/// [`ConsistencyEngine::corrections`]). The box takes the class of the
/// observation before the gap; `None` if the track is not observed on
/// both sides.
pub fn interpolate_track_box(
    window: &ConsistencyWindow<TrackedBox>,
    id: &u64,
    ti: usize,
) -> Option<TrackedBox> {
    let find = |range: Box<dyn Iterator<Item = usize>>| -> Option<(usize, TrackedBox)> {
        for i in range {
            if let Some(tb) = window.outputs_at(i).iter().find(|o| o.track == *id) {
                return Some((i, tb.clone()));
            }
        }
        None
    };
    let (bi, before) = find(Box::new((0..ti).rev()))?;
    let (ai, after) = find(Box::new(ti + 1..window.len()))?;
    let span = window.time(ai) - window.time(bi);
    if span <= 0.0 {
        return None;
    }
    let frac = (window.time(ti) - window.time(bi)) / span;
    Some(TrackedBox {
        track: *id,
        class: before.class,
        bbox: before.bbox.lerp(&after.bbox, frac),
    })
}

/// Builds a weak-supervision training batch from a video segment: the
/// ground-truth frames supply appearances ("image patches"), the
/// detections supply everything else.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn video_weak_batch(
    gt_frames: &[GtFrame],
    dets: &[Vec<Detection>],
    config: &VideoWeakConfig,
) -> TrainingBatch {
    assert_eq!(gt_frames.len(), dets.len(), "frames/detections mismatch");
    let mut batch = TrainingBatch::new();
    if gt_frames.is_empty() {
        return batch;
    }

    // Track the detections over the whole segment.
    let frames: Vec<VideoFrame> = gt_frames
        .iter()
        .zip(dets)
        .map(|(g, d)| VideoFrame {
            index: g.index,
            time: g.time,
            dets: d.iter().map(|x| x.scored).collect(),
        })
        .collect();
    let window = VideoWindow::new(frames, 0);
    let tracked = crate::helpers::track_window(&window);

    let engine =
        ConsistencyEngine::new(VideoTrackSpec).with_temporal_threshold(config.temporal_threshold);
    for correction in engine.corrections(&tracked, interpolate_track_box) {
        match correction {
            Correction::Add {
                time_index, output, ..
            } => {
                if let Some(signal) = signal_near(&gt_frames[time_index].signals, &output.bbox) {
                    batch.add_weak_box(signal.appearance.clone(), output.class, config.weight);
                }
            }
            Correction::Remove {
                time_index,
                output_index,
                ..
            } => {
                if !config.remove_blips {
                    continue;
                }
                let bbox = tracked.outputs_at(time_index)[output_index].bbox;
                if let Some(signal) = signal_near(&gt_frames[time_index].signals, &bbox) {
                    batch.add_weak_background(signal.appearance.clone(), config.weight);
                }
            }
            Correction::SetAttr {
                time_index,
                output_index,
                value,
                ..
            } => {
                let bbox = tracked.outputs_at(time_index)[output_index].bbox;
                if let (Some(signal), Some(class)) = (
                    signal_near(&gt_frames[time_index].signals, &bbox),
                    value.as_int(),
                ) {
                    batch.add_weak_class(signal.appearance.clone(), class as usize, config.weight);
                }
            }
        }
    }

    // Multibox clusters: suppress everything but the best-scored box of
    // each overlapping same-class pair group.
    for (gt, frame_dets) in gt_frames.iter().zip(dets) {
        for (i, di) in frame_dets.iter().enumerate() {
            let overlapping_better = frame_dets.iter().enumerate().any(|(j, dj)| {
                j != i
                    && dj.scored.class == di.scored.class
                    && dj.scored.bbox.iou(&di.scored.bbox) >= MULTIBOX_IOU
                    && (dj.scored.score, j) > (di.scored.score, i)
            });
            if overlapping_better {
                if let Some(signal) = signal_near(&gt.signals, &di.scored.bbox) {
                    batch.add_weak_remove(signal.appearance.clone(), config.weight);
                }
            }
        }
    }
    batch
}

/// Builds a weak-supervision batch for the AV camera model: every LIDAR
/// detection whose projection matches no camera detection becomes a weak
/// camera positive at that location (class 0, "vehicle" — the paper's AV
/// task detects vehicles only).
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn av_weak_batch(
    samples: &[AvSample],
    camera_dets: &[Vec<Detection>],
    weight: f64,
) -> TrainingBatch {
    assert_eq!(
        samples.len(),
        camera_dets.len(),
        "samples/detections mismatch"
    );
    let mut batch = TrainingBatch::new();
    for (sample, dets) in samples.iter().zip(camera_dets) {
        let camera_boxes: Vec<BBox2D> = dets.iter().map(|d| d.scored.bbox).collect();
        for lidar in &sample.lidar {
            let Some(projected) = sample.camera.project_box(&lidar.bbox) else {
                continue;
            };
            if no_overlap(&projected, camera_boxes.iter(), 0.1) {
                if let Some(signal) = signal_near(&sample.signals, &projected) {
                    batch.add_weak_box(signal.appearance.clone(), 0, weight);
                }
            }
        }
    }
    batch
}

/// Weak labels for ECG predictions: every interior run of a class shorter
/// than `t_secs`, with the *same* class on both sides and at least two
/// consecutive agreeing predictions on each side (so the surrounding
/// rhythm call is itself well-evidenced), is relabeled to the surrounding
/// class. Returns `(index, corrected_class)` pairs.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn ecg_weak_labels(times: &[f64], preds: &[usize], t_secs: f64) -> Vec<(usize, usize)> {
    assert_eq!(times.len(), preds.len(), "times/preds mismatch");
    let n = preds.len();
    let mut out = Vec::new();
    if n < 3 {
        return out;
    }
    // run_len[i] = length of the maximal constant run containing i.
    let mut run_len = vec![0usize; n];
    let mut start = 0usize;
    for i in 1..=n {
        if i == n || preds[i] != preds[start] {
            for r in run_len.iter_mut().take(i).skip(start) {
                *r = i - start;
            }
            start = i;
        }
    }
    let mut start = 0usize;
    for i in 1..=n {
        if i == n || preds[i] != preds[start] {
            let end = i - 1;
            // Interior run, matching neighbours, both evidenced by runs
            // of at least two windows.
            if start > 0
                && i < n
                && preds[start - 1] == preds[i]
                && run_len[start - 1] >= 2
                && run_len[i] >= 2
            {
                let duration = times[i] - times[start];
                if duration < t_secs {
                    for idx in start..=end {
                        out.push((idx, preds[start - 1]));
                    }
                }
            }
            start = i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_sim::av::{AvConfig, AvWorld};
    use omg_sim::detector::{DetectorConfig, SimDetector};
    use omg_sim::traffic::{TrafficConfig, TrafficWorld};

    #[test]
    fn ecg_weak_labels_fix_blips() {
        let times: Vec<f64> = (0..7).map(|i| i as f64 * 10.0).collect();
        let preds = vec![0, 0, 1, 0, 0, 0, 0];
        let weak = ecg_weak_labels(&times, &preds, 30.0);
        assert_eq!(weak, vec![(2, 0)]);
    }

    #[test]
    fn ecg_weak_labels_leave_long_runs() {
        let times: Vec<f64> = (0..10).map(|i| i as f64 * 10.0).collect();
        let preds = vec![0, 0, 1, 1, 1, 1, 0, 0, 0, 0];
        // The class-1 run spans 40 s > 30 s: no correction.
        assert!(ecg_weak_labels(&times, &preds, 30.0).is_empty());
    }

    #[test]
    fn ecg_weak_labels_require_matching_neighbours() {
        let times: Vec<f64> = (0..7).map(|i| i as f64 * 10.0).collect();
        // A-run, blip of C, B-run: neighbours differ -> ambiguous, skip.
        let preds = vec![0, 0, 0, 2, 1, 1, 1];
        assert!(ecg_weak_labels(&times, &preds, 30.0).is_empty());
    }

    #[test]
    fn ecg_weak_labels_require_evidenced_neighbours() {
        let times: Vec<f64> = (0..5).map(|i| i as f64 * 10.0).collect();
        // Matching neighbours but each is a single window: not enough
        // evidence that the surrounding rhythm call is right.
        let preds = vec![2, 0, 1, 0, 2];
        assert!(ecg_weak_labels(&times, &preds, 30.0).is_empty());
    }

    #[test]
    fn video_weak_batch_generates_examples_on_night_traffic() {
        let mut world = TrafficWorld::new(TrafficConfig::night_street(), 3);
        let frames = world.steps(300);
        let detector = SimDetector::pretrained(DetectorConfig::default(), 1);
        let dets: Vec<Vec<Detection>> = frames
            .iter()
            .map(|f| detector.detect_frame(f.index, &f.signals))
            .collect();
        let batch = video_weak_batch(&frames, &dets, &VideoWeakConfig::default());
        assert!(
            !batch.is_empty(),
            "a flickery night detector must produce weak labels"
        );
        assert!(batch.len_det() > 0, "expected weak det examples");
    }

    #[test]
    fn av_weak_batch_imputes_from_lidar() {
        let world = AvWorld::new(AvConfig::default(), 7);
        let detector = SimDetector::pretrained(DetectorConfig::default(), 1);
        let mut total = 0usize;
        for scene in 0..10u64 {
            let samples = world.scene(scene);
            let dets: Vec<Vec<Detection>> = samples
                .iter()
                .map(|s| detector.detect_frame(scene * 1000 + s.index as u64, &s.signals))
                .collect();
            let batch = av_weak_batch(&samples, &dets, 0.5);
            total += batch.len_det();
        }
        assert!(
            total > 5,
            "camera misses with LIDAR hits should impute boxes: {total}"
        );
    }

    #[test]
    fn interpolation_requires_both_sides() {
        let mut window = ConsistencyWindow::new();
        let tb = |x: f64| TrackedBox {
            track: 1,
            class: 0,
            bbox: BBox2D::new(x, 0.0, x + 10.0, 10.0).unwrap(),
        };
        window.push(0.0, vec![tb(0.0)]);
        window.push(1.0, vec![]);
        window.push(2.0, vec![tb(10.0)]);
        let mid = interpolate_track_box(&window, &1, 1).unwrap();
        assert!((mid.bbox.x1() - 5.0).abs() < 1e-9);
        // No observation after the gap: no interpolation.
        let mut half = ConsistencyWindow::new();
        half.push(0.0, vec![tb(0.0)]);
        half.push(1.0, vec![]);
        assert!(interpolate_track_box(&half, &1, 1).is_none());
    }

    #[test]
    fn single_gap_is_midpoint() {
        let mut window = ConsistencyWindow::new();
        let tb = |x: f64| TrackedBox {
            track: 1,
            class: 0,
            bbox: BBox2D::new(x, 0.0, x + 10.0, 10.0).unwrap(),
        };
        window.push(0.0, vec![tb(0.0)]);
        window.push(1.0, vec![]);
        window.push(2.0, vec![tb(10.0)]);
        let filled = interpolate_track_box(&window, &1, 1).unwrap();
        assert_eq!(filled.track, 1);
        assert!((filled.bbox.x1() - 5.0).abs() < 1e-12);
        assert!((filled.bbox.x2() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn multi_frame_gap_is_evenly_spaced() {
        let mut window = ConsistencyWindow::new();
        let tb = |x: f64| TrackedBox {
            track: 1,
            class: 0,
            bbox: BBox2D::new(x, 0.0, x + 10.0, 10.0).unwrap(),
        };
        window.push(0.0, vec![tb(0.0)]);
        for t in 1..4 {
            window.push(f64::from(t), vec![]);
        }
        window.push(4.0, vec![tb(8.0)]);
        let hull = tb(0.0).bbox.union_bounds(&tb(8.0).bbox);
        for ti in 1..4 {
            let filled = interpolate_track_box(&window, &1, ti).unwrap();
            assert!((filled.bbox.x1() - 2.0 * ti as f64).abs() < 1e-12);
            assert!(hull.contains_box(&filled.bbox));
        }
    }

    #[test]
    fn signal_near_breaks_equal_overlap_ties_by_last_candidate() {
        let bbox = omg_geom::BBox2D::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let sig = |id: u64| ObjectSignal {
            track_id: id,
            true_class: 0,
            bbox,
            appearance: vec![],
            quality: 1.0,
        };
        // Equal IoU: `max_by` keeps the last maximal candidate, so the
        // winner is a function of input order alone, never float noise.
        assert_eq!(signal_near(&[sig(1), sig(2)], &bbox).unwrap().track_id, 2);
        assert_eq!(signal_near(&[sig(2), sig(1)], &bbox).unwrap().track_id, 1);
    }
}
