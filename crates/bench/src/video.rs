//! The `night-street` video-analytics scenario (Figures 3, 4a, 9a;
//! Tables 3, 4, 6), ported onto the generic [`Scenario`] engine.
//!
//! This module keeps only what is *specific* to night-street: the world,
//! the detector hookup, the error-attribution rules, and the
//! weak-supervision recipe. Batch scoring, streaming scoring, the active
//! learner, and the error-collection loop are the generic drivers in
//! `omg-scenario`.

use std::sync::{Arc, OnceLock};

use omg_domains::{video_assertion_set, video_prepared_assertion_set, VideoPrep, VideoPrepare};
use omg_domains::{VideoFrame, VideoWindow};
use omg_eval::DetectionEvaluator;
use omg_scenario::{detection_uncertainty, FoundError, Scenario};
use omg_sim::detector::{Detection, DetectorConfig, Provenance, SimDetector, TrainingBatch};
use omg_sim::traffic::{GtFrame, TrafficConfig, TrafficWorld};
use rand::rngs::StdRng;

/// The temporal threshold `T` for the video consistency assertions,
/// seconds.
pub const FLICKER_T: f64 = 0.45;

/// Frames of context on each side of a window's center frame.
pub const WINDOW_HALF: usize = 2;

/// The fixed configuration of a night-street experiment.
#[derive(Debug, Clone)]
pub struct VideoScenario {
    /// The unlabeled pool: one "day" of video.
    pub pool_frames: Vec<GtFrame>,
    /// The held-out test set: "a separate day of video" (§5.1).
    pub test_frames: Vec<GtFrame>,
}

impl VideoScenario {
    /// Builds the scenario: `pool_len` frames of pool video and
    /// `test_len` frames of test video from two different seeds.
    pub fn night_street(seed: u64, pool_len: usize, test_len: usize) -> Self {
        let mut pool_world = TrafficWorld::new(TrafficConfig::night_street(), seed);
        let mut test_world = TrafficWorld::new(TrafficConfig::night_street(), seed ^ 0x5EED);
        Self {
            pool_frames: pool_world.steps(pool_len),
            test_frames: test_world.steps(test_len),
        }
    }

    /// The experiment-standard sizes (1,200-frame pool, 500-frame test).
    pub fn standard(seed: u64) -> Self {
        Self::night_street(seed, 1200, 500)
    }
}

/// One position of the night-street stream: the ground-truth frame and
/// the detector's output on it. The ground truth and provenance ride
/// along for the error-attribution and labeling hooks; the assertions
/// only ever see the scored boxes. Both are shared, so cloning an item
/// (as the service does on ingest) bumps two reference counts and copies
/// no frame; the detections stay one pointer away for `make_sample`.
#[derive(Debug, Clone)]
pub struct VideoItem {
    /// The simulated frame (ground truth + detector-facing signals).
    pub gt: Arc<GtFrame>,
    /// The detector's output on the frame.
    pub dets: Arc<[Detection]>,
}

/// Runs the detector over a frame sequence.
pub fn detect_all(detector: &SimDetector, frames: &[GtFrame]) -> Vec<Vec<Detection>> {
    frames
        .iter()
        .map(|f| detector.detect_frame(f.index, &f.signals))
        .collect()
}

/// Builds the sliding assertion window centered on `center` (clamped at
/// sequence edges).
///
/// # Panics
///
/// Panics if `center` is not a valid frame index or the detection lists
/// don't line up with the frames.
pub fn window_at(frames: &[GtFrame], dets: &[Vec<Detection>], center: usize) -> VideoWindow {
    assert_eq!(
        frames.len(),
        dets.len(),
        "need one detection list per frame"
    );
    assert!(
        center < frames.len(),
        "window center {center} out of range for {} frames",
        frames.len()
    );
    let lo = center.saturating_sub(WINDOW_HALF);
    let hi = (center + WINDOW_HALF + 1).min(frames.len());
    let vf: Vec<VideoFrame> = (lo..hi)
        .map(|i| VideoFrame {
            index: frames[i].index,
            time: frames[i].time,
            dets: dets[i].iter().map(|d| d.scored).collect(),
        })
        .collect();
    VideoWindow::new(vf, center - lo)
}

/// Builds `n` sliding monitor windows over a fresh night-street stream —
/// the shared input of the engine benchmarks and `exp_throughput`.
pub fn monitor_windows(n: usize, seed: u64) -> Vec<VideoWindow> {
    let mut world = TrafficWorld::new(TrafficConfig::night_street(), seed);
    let frames = world.steps(n);
    let det = SimDetector::pretrained(DetectorConfig::default(), 1);
    let dets = detect_all(&det, &frames);
    (0..n).map(|c| window_at(&frames, &dets, c)).collect()
}

/// mAP (percent) of the detector on a frame sequence.
pub fn evaluate_map(detector: &SimDetector, frames: &[GtFrame]) -> f64 {
    let mut ev = DetectionEvaluator::new(0.5);
    for frame in frames {
        let dets = detector.detect_frame(frame.index, &frame.signals);
        let scored: Vec<_> = dets.iter().map(|d| d.scored).collect();
        ev.add_frame(&scored, &frame.gt_boxes());
    }
    ev.map_percent()
}

/// Adds full human labels for one frame to a training batch (every object
/// box + background patches — what a labeling service returns for the
/// frame).
pub fn label_frame_into(batch: &mut TrainingBatch, frame: &GtFrame) {
    for signal in &frame.signals {
        if signal.is_clutter() {
            batch.add_labeled_background(signal);
        } else {
            batch.add_labeled_object(signal);
        }
    }
}

/// The weak-supervision experiment for video (Table 4, row 1): corrections
/// from the consistency assertions fine-tune the pretrained detector with
/// no human labels.
pub fn video_weak_supervision(
    scenario: &VideoScenario,
    detector: &SimDetector,
    epochs: usize,
    rng: &mut StdRng,
) -> (f64, f64) {
    let before = evaluate_map(detector, &scenario.test_frames);
    let dets = detect_all(detector, &scenario.pool_frames);
    let batch = omg_domains::weak::video_weak_batch(
        &scenario.pool_frames,
        &dets,
        &omg_domains::weak::VideoWeakConfig::default(),
    );
    let mut tuned = detector.clone();
    if !batch.is_empty() {
        tuned.train(&batch, epochs, rng);
    }
    let after = evaluate_map(&tuned, &scenario.test_frames);
    (before, after)
}

impl Scenario for VideoScenario {
    type Item = VideoItem;
    type Sample = VideoWindow;
    type Prep = VideoPrep;
    type Model = SimDetector;
    type Labels = TrainingBatch;

    fn name(&self) -> &'static str {
        "video"
    }

    fn title(&self) -> &'static str {
        "Video analytics"
    }

    fn metric_unit(&self) -> &'static str {
        "mAP"
    }

    fn window_half(&self) -> usize {
        WINDOW_HALF
    }

    fn pool_len(&self) -> usize {
        self.pool_frames.len()
    }

    fn pretrained_model(&self, seed: u64) -> SimDetector {
        pretrained_detector(seed)
    }

    fn run_model(&self, model: &SimDetector) -> Vec<VideoItem> {
        self.pool_frames
            .iter()
            .map(|f| VideoItem {
                gt: Arc::new(f.clone()),
                dets: model.detect_frame(f.index, &f.signals).into(),
            })
            .collect()
    }

    fn assertion_set(&self) -> omg_core::AssertionSet<VideoWindow> {
        video_assertion_set(FLICKER_T)
    }

    fn prepared_set(&self) -> omg_core::AssertionSet<VideoWindow, VideoPrep> {
        video_prepared_assertion_set(FLICKER_T)
    }

    fn preparer(&self) -> Box<dyn omg_core::stream::Prepare<VideoWindow, Prepared = VideoPrep>> {
        Box::new(VideoPrepare::new(FLICKER_T))
    }

    fn make_sample(&self, items: &[VideoItem], center: usize) -> VideoWindow {
        let frames = items
            .iter()
            .map(|it| VideoFrame {
                index: it.gt.index,
                time: it.gt.time,
                dets: it.dets.iter().map(|d| d.scored).collect(),
            })
            .collect();
        VideoWindow::new(frames, center)
    }

    fn uncertainty(&self, item: &VideoItem) -> f64 {
        detection_uncertainty(item.dets.iter().map(|d| d.scored.score))
    }

    fn initial_labels(&self) -> TrainingBatch {
        TrainingBatch::new()
    }

    fn label_into(&self, labels: &mut TrainingBatch, pool_index: usize) {
        label_frame_into(labels, &self.pool_frames[pool_index]);
    }

    fn train(&self, model: &mut SimDetector, labels: &TrainingBatch, rng: &mut StdRng) {
        if !labels.is_empty() {
            model.train(labels, 4, rng);
        }
    }

    fn evaluate(&self, model: &SimDetector) -> f64 {
        evaluate_map(model, &self.test_frames)
    }

    fn weak_supervision(&self, model: &SimDetector, rng: &mut StdRng) -> Option<(f64, f64)> {
        Some(video_weak_supervision(self, model, 6, rng))
    }

    fn item_errors(&self, assertion: &str, items: &[VideoItem], center: usize) -> Vec<FoundError> {
        // PANIC: item_errors receives a center inside `items`.
        match assertion {
            "multibox" => duplicate_errors(&items[center].dets, center),
            "appear" => clutter_errors(&items[center].dets, center),
            "flicker" => flicker_miss_errors(items, center),
            _ => Vec::new(),
        }
    }
}

pub(crate) fn duplicate_errors(dets: &[Detection], frame: usize) -> Vec<FoundError> {
    // Table 5 scores a multibox cluster by "the maximum confidence of 3
    // vehicles that highly overlap": attribute the cluster's max
    // confidence to the error — one error per duplicated cluster, no
    // matter how many duplicate members it has.
    let mut clusters: Vec<u64> = dets
        .iter()
        .filter(|d| matches!(d.provenance, Provenance::Duplicate { .. }))
        .map(|d| d.track_id())
        .collect();
    clusters.sort_unstable();
    clusters.dedup();
    clusters
        .into_iter()
        .map(|track| {
            let cluster_max = dets
                .iter()
                .filter(|o| o.track_id() == track)
                .map(|o| o.scored.score)
                .fold(0.0f64, omg_core::float::fmax);
            FoundError {
                confidence: cluster_max,
                frame,
                source: track,
            }
        })
        .collect()
}

pub(crate) fn clutter_errors(dets: &[Detection], frame: usize) -> Vec<FoundError> {
    dets.iter()
        .filter(|d| matches!(d.provenance, Provenance::Clutter { .. }))
        .map(|d| FoundError {
            confidence: d.scored.score,
            frame,
            source: d.track_id(),
        })
        .collect()
}

/// Missed objects at `center` that were detected on both adjacent frames
/// (a flicker miss); confidence = mean of the neighbours' confidences.
fn flicker_miss_errors(items: &[VideoItem], center: usize) -> Vec<FoundError> {
    if center == 0 || center + 1 >= items.len() {
        return Vec::new();
    }
    let detected_conf = |item_idx: usize, track: u64| -> Option<f64> {
        // PANIC: called only with center±1, bounds-checked above.
        items[item_idx]
            .dets
            .iter()
            .find_map(|d| match d.provenance {
                Provenance::Object { track_id, .. } if track_id == track => Some(d.scored.score),
                _ => None,
            })
    };
    let mut errors = Vec::new();
    // PANIC: center + 1 < items.len() was checked at entry.
    for signal in items[center].gt.signals.iter().filter(|s| !s.is_clutter()) {
        if detected_conf(center, signal.track_id).is_some() {
            continue;
        }
        if let (Some(before), Some(after)) = (
            detected_conf(center - 1, signal.track_id),
            detected_conf(center + 1, signal.track_id),
        ) {
            errors.push(FoundError {
                confidence: (before + after) / 2.0,
                frame: center,
                source: signal.track_id,
            });
        }
    }
    errors
}

/// All detection confidences in the stream (the Figure 3 population).
pub fn all_confidences(items: &[VideoItem]) -> Vec<f64> {
    items
        .iter()
        .flat_map(|it| it.dets.iter().map(|x| x.scored.score))
        .collect()
}

/// Builds the standard pretrained detector for the video experiments.
pub fn pretrained_detector(seed: u64) -> SimDetector {
    SimDetector::pretrained(DetectorConfig::default(), seed)
}

/// The registry's shared pretrained detector (model seed 1): pretraining
/// is by far the most expensive step of building a harness (a
/// 7,000-example corpus, 30 epochs), and the conformance suite varies
/// the *world* per case, so one cached model serves them all.
pub fn shared_pretrained_detector() -> &'static SimDetector {
    static DETECTOR: OnceLock<SimDetector> = OnceLock::new();
    DETECTOR.get_or_init(|| pretrained_detector(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_active::ActiveLearner;
    use omg_core::runtime::ThreadPool;
    use omg_scenario::{
        dedup_errors, errors_by_assertion, score_scenario, stream_score_scenario, ScenarioLearner,
    };
    use rand::SeedableRng;

    fn tiny_scenario() -> VideoScenario {
        VideoScenario::night_street(5, 120, 80)
    }

    #[test]
    fn scenario_has_disjoint_pool_and_test() {
        let s = tiny_scenario();
        assert_eq!(s.pool_frames.len(), 120);
        assert_eq!(s.test_frames.len(), 80);
        assert_ne!(s.pool_frames[0], s.test_frames[0]);
    }

    #[test]
    fn windows_clamp_at_edges() {
        let s = tiny_scenario();
        let det = pretrained_detector(1);
        let dets = detect_all(&det, &s.pool_frames);
        let w0 = window_at(&s.pool_frames, &dets, 0);
        assert_eq!(w0.center, 0);
        assert_eq!(w0.len(), WINDOW_HALF + 1);
        let wmid = window_at(&s.pool_frames, &dets, 60);
        assert_eq!(wmid.len(), 2 * WINDOW_HALF + 1);
        assert_eq!(wmid.center, WINDOW_HALF);
        let wend = window_at(&s.pool_frames, &dets, 119);
        assert_eq!(wend.center, WINDOW_HALF);
        assert_eq!(wend.len(), WINDOW_HALF + 1);
    }

    #[test]
    fn generic_samples_match_hand_built_windows() {
        // The trait's make_sample must build exactly the clamped window
        // the pre-engine `window_at` reference built.
        let s = tiny_scenario();
        let det = pretrained_detector(1);
        let dets = detect_all(&det, &s.pool_frames);
        let items = s.run_model(&det);
        for center in [0usize, 1, 60, 118, 119] {
            let lo = center.saturating_sub(WINDOW_HALF);
            let hi = (center + WINDOW_HALF + 1).min(items.len());
            let sample = s.make_sample(&items[lo..hi], center - lo);
            assert_eq!(sample, window_at(&s.pool_frames, &dets, center));
        }
    }

    #[test]
    fn assertions_fire_on_night_street() {
        let s = tiny_scenario();
        let items = s.run_model(&pretrained_detector(1));
        let set = s.assertion_set();
        let (sev, unc) = score_scenario(&s, &set, &items, &ThreadPool::sequential());
        assert_eq!(sev.len(), 120);
        assert_eq!(unc.len(), 120);
        let total_fires: f64 = sev.iter_rows().flat_map(|r| r.iter()).sum();
        assert!(
            total_fires > 0.0,
            "the pretrained night detector must trip assertions"
        );
        // The fan-out path merges in frame order: identical scores at
        // any thread count.
        for threads in [2, 8] {
            let (psev, punc) = score_scenario(&s, &set, &items, &ThreadPool::new(threads));
            assert_eq!(psev, sev, "severities differ at {threads} threads");
            assert_eq!(punc, unc, "uncertainties differ at {threads} threads");
        }
    }

    #[test]
    fn learner_trains_and_pool_shrinks() {
        let s = tiny_scenario();
        let mut learner = ScenarioLearner::new(s, pretrained_detector(1));
        let mut rng = StdRng::seed_from_u64(2);
        let pool = learner.pool();
        assert_eq!(pool.len(), 120);
        learner.label_and_train(&[0, 5, 10], &mut rng);
        assert_eq!(learner.unlabeled_len(), 117);
        let metric = learner.evaluate();
        assert!(metric > 0.0 && metric < 100.0, "mAP% {metric}");
    }

    #[test]
    fn duplicate_selection_labels_each_frame_once() {
        // Regression: a selection with repeated positions used to label
        // (and budget-count) the frame twice; the learner must end up in
        // exactly the state a deduplicated selection produces.
        let mut dup = ScenarioLearner::new(tiny_scenario(), pretrained_detector(1));
        let mut clean = ScenarioLearner::new(tiny_scenario(), pretrained_detector(1));
        let mut rng_dup = StdRng::seed_from_u64(2);
        let mut rng_clean = StdRng::seed_from_u64(2);
        dup.label_and_train(&[7, 3, 7, 7, 3], &mut rng_dup);
        clean.label_and_train(&[3, 7], &mut rng_clean);
        assert_eq!(dup.unlabeled_len(), 118);
        assert_eq!(dup.unlabeled_len(), clean.unlabeled_len());
        // Identical training data => identical detector behaviour.
        let frame = &dup.scenario().test_frames[0];
        assert_eq!(
            dup.model().detect_frame(frame.index, &frame.signals),
            clean.model().detect_frame(frame.index, &frame.signals),
            "double-labeled batch changed training"
        );
    }

    #[test]
    fn stream_scoring_matches_batch_scoring() {
        let s = tiny_scenario();
        let items = s.run_model(&pretrained_detector(1));
        let want = score_scenario(&s, &s.assertion_set(), &items, &ThreadPool::sequential());
        let stream_set = s.prepared_set();
        let preparer = s.preparer();
        for threads in [1, 2, 8] {
            let got = stream_score_scenario(
                &s,
                &stream_set,
                &preparer,
                &items,
                &ThreadPool::new(threads),
            );
            assert_eq!(got, want, "stream diverges from batch at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_at_rejects_out_of_range_center() {
        let s = tiny_scenario();
        let det = pretrained_detector(1);
        let dets = detect_all(&det, &s.pool_frames);
        window_at(&s.pool_frames, &dets, s.pool_frames.len());
    }

    fn det(score: f64, provenance: Provenance) -> Detection {
        use omg_eval::ScoredBox;
        use omg_geom::BBox2D;
        Detection {
            scored: ScoredBox {
                bbox: BBox2D::new(0.0, 0.0, 10.0, 10.0).unwrap(),
                class: 0,
                score,
            },
            provenance,
        }
    }

    #[test]
    fn multi_member_cluster_counts_as_one_error() {
        // Regression: a cluster with two Duplicate members used to push
        // its max confidence once per member.
        let dets = vec![
            det(
                0.9,
                Provenance::Object {
                    track_id: 5,
                    true_class: 0,
                },
            ),
            det(
                0.8,
                Provenance::Duplicate {
                    track_id: 5,
                    true_class: 0,
                },
            ),
            det(
                0.7,
                Provenance::Duplicate {
                    track_id: 5,
                    true_class: 0,
                },
            ),
            det(
                0.6,
                Provenance::Duplicate {
                    track_id: 9,
                    true_class: 0,
                },
            ),
        ];
        let errs = duplicate_errors(&dets, 3);
        assert_eq!(errs.len(), 2, "one error per duplicated cluster");
        assert_eq!(
            errs[0],
            FoundError {
                confidence: 0.9,
                frame: 3,
                source: 5
            }
        );
        assert_eq!(
            errs[1],
            FoundError {
                confidence: 0.6,
                frame: 3,
                source: 9
            }
        );
    }

    #[test]
    fn equal_confidence_clutter_errors_stay_distinct() {
        // The clutter extractor tags sources so confidence ties survive
        // the identity-keyed dedup.
        let dets = vec![
            det(0.8, Provenance::Clutter { track_id: 1 }),
            det(0.8, Provenance::Clutter { track_id: 2 }),
        ];
        let mut found = clutter_errors(&dets, 4);
        dedup_errors(&mut found);
        assert_eq!(
            found.len(),
            2,
            "equal-confidence clutter errors are distinct"
        );
    }

    #[test]
    fn error_collection_is_well_formed() {
        let s = tiny_scenario();
        let items = s.run_model(&pretrained_detector(1));
        let set = s.assertion_set();
        let by_assertion = errors_by_assertion(&s, &set, &items);
        assert_eq!(by_assertion.len(), 3);
        for (_, errs) in &by_assertion {
            for e in errs {
                assert!((0.0..=1.0).contains(&e.confidence));
                assert!(e.frame < 120);
            }
        }
        let confs = all_confidences(&items);
        assert!(!confs.is_empty());
    }

    #[test]
    fn duplicate_cluster_confidence_ignores_detection_order() {
        use omg_eval::ScoredBox;
        use omg_geom::BBox2D;
        let bb = BBox2D::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let dup = |score: f64| Detection {
            scored: ScoredBox {
                bbox: bb,
                class: 0,
                score,
            },
            provenance: Provenance::Duplicate {
                track_id: 7,
                true_class: 0,
            },
        };
        let mut dets = vec![dup(0.3), dup(0.9), dup(0.6)];
        let fwd = duplicate_errors(&dets, 4);
        dets.reverse();
        let rev = duplicate_errors(&dets, 4);
        // One cluster; its confidence is the fmax fold over member
        // scores, identical whichever way the detections are iterated.
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].confidence, 0.9);
        assert_eq!(fwd[0].confidence.to_bits(), rev[0].confidence.to_bits());
    }
}
