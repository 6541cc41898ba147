use std::collections::BTreeMap;

use omg_geom::BBox2D;

use crate::ap::average_precision;

/// A detector output: a box, a class label, and a confidence score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredBox {
    /// Detected bounding box.
    pub bbox: BBox2D,
    /// Predicted class index.
    pub class: usize,
    /// Confidence in `[0, 1]`.
    pub score: f64,
}

/// A ground-truth annotation: a box and its class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GtBox {
    /// Annotated bounding box.
    pub bbox: BBox2D,
    /// True class index.
    pub class: usize,
}

/// The outcome of matching one detection against a frame's ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// Matched a previously unmatched ground-truth box of the same class.
    TruePositive {
        /// Index into the frame's ground-truth slice.
        gt_index: usize,
    },
    /// No available same-class ground truth overlapped enough.
    FalsePositive,
}

impl MatchOutcome {
    /// Whether this outcome is a true positive.
    pub fn is_tp(&self) -> bool {
        matches!(self, MatchOutcome::TruePositive { .. })
    }
}

/// Per-frame matching result: one outcome per detection (in input order)
/// plus the indices of unmatched (missed) ground-truth boxes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMatch {
    /// Outcome for each detection, aligned with the input slice.
    pub outcomes: Vec<MatchOutcome>,
    /// Ground-truth indices that no detection matched (false negatives).
    pub missed_gt: Vec<usize>,
}

/// Greedy confidence-ordered matching of detections to ground truth.
///
/// Detections are visited in descending score order; each claims the
/// unmatched same-class ground-truth box with the highest IoU, provided
/// that IoU is at least `iou_threshold`. This is the standard matching rule
/// of PASCAL-VOC/COCO-style evaluation.
pub fn match_frame(dets: &[ScoredBox], gts: &[GtBox], iou_threshold: f64) -> FrameMatch {
    let mut order: Vec<usize> = (0..dets.len()).collect();
    order.sort_by(|&a, &b| dets[b].score.total_cmp(&dets[a].score).then(a.cmp(&b)));
    let mut gt_taken = vec![false; gts.len()];
    let mut outcomes = vec![MatchOutcome::FalsePositive; dets.len()];
    for &di in &order {
        let det = &dets[di];
        let mut best: Option<(usize, f64)> = None;
        for (gi, gt) in gts.iter().enumerate() {
            if gt_taken[gi] || gt.class != det.class {
                continue;
            }
            let iou = det.bbox.iou(&gt.bbox);
            if iou >= iou_threshold && best.map_or(true, |(_, b)| iou > b) {
                best = Some((gi, iou));
            }
        }
        if let Some((gi, _)) = best {
            gt_taken[gi] = true;
            outcomes[di] = MatchOutcome::TruePositive { gt_index: gi };
        }
    }
    let missed_gt = (0..gts.len()).filter(|&g| !gt_taken[g]).collect();
    FrameMatch {
        outcomes,
        missed_gt,
    }
}

/// Accumulates detections and ground truth over many frames and computes
/// per-class average precision and mAP.
///
/// Classes that never appear in the ground truth are excluded from the mean
/// (detections on such classes still count as false positives of that class
/// but contribute no AP term), matching common practice.
#[derive(Debug, Clone)]
pub struct DetectionEvaluator {
    iou_threshold: f64,
    /// Per class: (score, is_tp) for every detection seen.
    records: BTreeMap<usize, Vec<(f64, bool)>>,
    /// Per class: number of ground-truth boxes seen.
    gt_counts: BTreeMap<usize, usize>,
    frames: usize,
}

impl DetectionEvaluator {
    /// Creates an evaluator matching at the given IoU threshold
    /// (the paper's detection experiments use `0.5`).
    ///
    /// # Panics
    ///
    /// Panics if `iou_threshold` is not in `(0, 1]`.
    pub fn new(iou_threshold: f64) -> Self {
        assert!(
            iou_threshold > 0.0 && iou_threshold <= 1.0,
            "iou threshold must be in (0, 1], got {iou_threshold}"
        );
        Self {
            iou_threshold,
            records: BTreeMap::new(),
            gt_counts: BTreeMap::new(),
            frames: 0,
        }
    }

    /// Adds one frame's detections and ground truth.
    pub fn add_frame(&mut self, dets: &[ScoredBox], gts: &[GtBox]) {
        let m = match_frame(dets, gts, self.iou_threshold);
        for (det, outcome) in dets.iter().zip(&m.outcomes) {
            self.records
                .entry(det.class)
                .or_default()
                .push((det.score, outcome.is_tp()));
        }
        for gt in gts {
            *self.gt_counts.entry(gt.class).or_insert(0) += 1;
        }
        self.frames += 1;
    }

    /// Number of frames accumulated so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Average precision for each class with at least one ground-truth box.
    fn ap_per_class(&self) -> BTreeMap<usize, f64> {
        self.gt_counts
            .iter()
            .filter(|&(_, &n)| n > 0)
            .map(|(&class, &n_gt)| {
                let recs = self.records.get(&class).map(Vec::as_slice).unwrap_or(&[]);
                (class, average_precision(recs, n_gt))
            })
            .collect()
    }

    /// Mean average precision over classes present in the ground truth,
    /// in `[0, 1]`. Returns `0.0` when no ground truth has been added.
    pub fn map(&self) -> f64 {
        let aps = self.ap_per_class();
        if aps.is_empty() {
            0.0
        } else {
            aps.values().sum::<f64>() / aps.len() as f64
        }
    }

    /// mAP expressed in percent (the unit in the paper's Figures 4/9 and
    /// Table 4).
    pub fn map_percent(&self) -> f64 {
        self.map() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x: f64, y: f64, s: f64) -> BBox2D {
        BBox2D::new(x, y, x + s, y + s).unwrap()
    }

    fn det(x: f64, y: f64, s: f64, class: usize, score: f64) -> ScoredBox {
        ScoredBox {
            bbox: bb(x, y, s),
            class,
            score,
        }
    }

    fn gt(x: f64, y: f64, s: f64, class: usize) -> GtBox {
        GtBox {
            bbox: bb(x, y, s),
            class,
        }
    }

    #[test]
    fn perfect_detection_is_tp() {
        let m = match_frame(
            &[det(0.0, 0.0, 10.0, 0, 0.9)],
            &[gt(0.0, 0.0, 10.0, 0)],
            0.5,
        );
        assert_eq!(m.outcomes, vec![MatchOutcome::TruePositive { gt_index: 0 }]);
        assert!(m.missed_gt.is_empty());
    }

    #[test]
    fn wrong_class_is_fp_and_gt_missed() {
        let m = match_frame(
            &[det(0.0, 0.0, 10.0, 1, 0.9)],
            &[gt(0.0, 0.0, 10.0, 0)],
            0.5,
        );
        assert_eq!(m.outcomes, vec![MatchOutcome::FalsePositive]);
        assert_eq!(m.missed_gt, vec![0]);
    }

    #[test]
    fn each_gt_matched_at_most_once() {
        // Two detections on the same GT: only the higher-scoring one is TP.
        let dets = [det(0.0, 0.0, 10.0, 0, 0.8), det(0.5, 0.5, 10.0, 0, 0.9)];
        let m = match_frame(&dets, &[gt(0.0, 0.0, 10.0, 0)], 0.5);
        assert!(!m.outcomes[0].is_tp());
        assert!(m.outcomes[1].is_tp());
    }

    #[test]
    fn higher_score_claims_higher_iou_gt() {
        let dets = [det(0.0, 0.0, 10.0, 0, 0.9)];
        let gts = [gt(0.0, 0.0, 10.0, 0), gt(3.0, 3.0, 10.0, 0)];
        let m = match_frame(&dets, &gts, 0.3);
        assert_eq!(m.outcomes[0], MatchOutcome::TruePositive { gt_index: 0 });
        assert_eq!(m.missed_gt, vec![1]);
    }

    #[test]
    fn below_threshold_is_fp() {
        // IoU ≈ 0.143 < 0.5.
        let m = match_frame(
            &[det(5.0, 5.0, 10.0, 0, 0.9)],
            &[gt(0.0, 0.0, 10.0, 0)],
            0.5,
        );
        assert_eq!(m.outcomes, vec![MatchOutcome::FalsePositive]);
    }

    #[test]
    fn evaluator_perfect_map_is_one() {
        let mut ev = DetectionEvaluator::new(0.5);
        for i in 0..5 {
            let x = i as f64 * 20.0;
            ev.add_frame(&[det(x, 0.0, 10.0, 0, 0.9)], &[gt(x, 0.0, 10.0, 0)]);
        }
        assert!((ev.map() - 1.0).abs() < 1e-12);
        assert_eq!(ev.frames(), 5);
    }

    #[test]
    fn evaluator_half_recall() {
        let mut ev = DetectionEvaluator::new(0.5);
        ev.add_frame(&[det(0.0, 0.0, 10.0, 0, 0.9)], &[gt(0.0, 0.0, 10.0, 0)]);
        ev.add_frame(&[], &[gt(0.0, 0.0, 10.0, 0)]);
        assert!((ev.map() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn map_averages_over_classes() {
        let mut ev = DetectionEvaluator::new(0.5);
        // Class 0 perfect, class 1 completely missed.
        ev.add_frame(
            &[det(0.0, 0.0, 10.0, 0, 0.9)],
            &[gt(0.0, 0.0, 10.0, 0), gt(50.0, 50.0, 10.0, 1)],
        );
        assert!((ev.map() - 0.5).abs() < 1e-12);
        let aps = ev.ap_per_class();
        assert!((aps[&0] - 1.0).abs() < 1e-12);
        assert!((aps[&1] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn classes_without_gt_are_excluded() {
        let mut ev = DetectionEvaluator::new(0.5);
        // A false positive on class 7, GT only for class 0.
        ev.add_frame(
            &[det(0.0, 0.0, 10.0, 0, 0.9), det(50.0, 0.0, 10.0, 7, 0.8)],
            &[gt(0.0, 0.0, 10.0, 0)],
        );
        let aps = ev.ap_per_class();
        assert_eq!(aps.len(), 1);
        assert!(aps.contains_key(&0));
    }

    #[test]
    fn empty_evaluator_is_zero() {
        let ev = DetectionEvaluator::new(0.5);
        assert_eq!(ev.map(), 0.0);
        assert_eq!(ev.map_percent(), 0.0);
    }

    #[test]
    #[should_panic(expected = "iou threshold")]
    fn bad_threshold_panics() {
        DetectionEvaluator::new(0.0);
    }

    #[test]
    fn false_positives_lower_map() {
        let mut clean = DetectionEvaluator::new(0.5);
        let mut noisy = DetectionEvaluator::new(0.5);
        for i in 0..10 {
            let x = i as f64 * 30.0;
            let d = det(x, 0.0, 10.0, 0, 0.9);
            let g = gt(x, 0.0, 10.0, 0);
            clean.add_frame(&[d], &[g]);
            // The noisy evaluator also sees a high-confidence FP each frame.
            noisy.add_frame(&[d, det(x, 100.0, 10.0, 0, 0.95)], &[g]);
        }
        assert!(noisy.map() < clean.map());
    }

    #[test]
    fn equal_score_detections_match_in_index_order() {
        let m = match_frame(
            &[det(0.0, 0.0, 10.0, 0, 0.7), det(0.0, 0.0, 10.0, 0, 0.7)],
            &[gt(0.0, 0.0, 10.0, 0)],
            0.5,
        );
        // Tied confidences visit earlier detections first, so detection
        // 0 always claims the box and detection 1 is the duplicate.
        assert_eq!(m.outcomes[0], MatchOutcome::TruePositive { gt_index: 0 });
        assert_eq!(m.outcomes[1], MatchOutcome::FalsePositive);
    }
}
