//! The autonomous-vehicle scenario (Figure 4b; Tables 3, 4), ported onto
//! the generic [`Scenario`] engine.
//!
//! Matching §5.1: scenes are sampled at 2 Hz, the LIDAR model is
//! bootstrapped (fixed), and active learning / weak supervision improve
//! the *camera* model. The task is single-class vehicle detection
//! ("We detected vehicles only"), so evaluation maps every class to 0.
//!
//! AV samples carry no temporal context (`window_half = 0`): streaming
//! here means ingesting one sample at a time and running the
//! LIDAR→camera projection **once per sample**, shared by the prepared
//! set, instead of once per assertion that needs it.

use std::sync::OnceLock;

use omg_domains::{av_assertion_set, av_prepared_assertion_set, AvFrame, AvPrepare};
use omg_eval::{DetectionEvaluator, GtBox, ScoredBox};
use omg_geom::BBox2D;
use omg_scenario::{detection_uncertainty, Scenario};
use omg_sim::av::{AvConfig, AvSample, AvWorld};
use omg_sim::detector::{Detection, DetectorConfig, SimDetector, TrainingBatch};
use rand::rngs::StdRng;

/// Minimum LIDAR confidence for a box to participate in assertions.
const LIDAR_SCORE_MIN: f64 = 0.3;

/// The fixed configuration of an AV experiment.
#[derive(Debug, Clone)]
pub struct AvScenario {
    /// Unlabeled pool samples, flattened across scenes.
    pub pool: Vec<AvSample>,
    /// Held-out test samples.
    pub test: Vec<AvSample>,
}

impl AvScenario {
    /// Builds a scenario from contiguous scene ranges (scenes are
    /// deterministic per index, so ranges are disjoint splits — the
    /// paper's by-scene splits of NuScenes).
    pub fn new(seed: u64, pool_scenes: u64, test_scenes: u64) -> Self {
        let world = AvWorld::new(AvConfig::default(), seed);
        let pool = (0..pool_scenes).flat_map(|i| world.scene(i)).collect();
        let test = (pool_scenes..pool_scenes + test_scenes)
            .flat_map(|i| world.scene(i))
            .collect();
        Self { pool, test }
    }

    /// Experiment-standard sizes (30 pool scenes, 12 test scenes at 20
    /// samples each).
    pub fn standard(seed: u64) -> Self {
        Self::new(seed, 30, 12)
    }
}

/// A globally unique frame index for a sample (per-scene indices repeat).
fn frame_key(sample: &AvSample) -> u64 {
    sample.scene * 10_000 + sample.index as u64
}

/// Runs the camera detector over samples.
pub fn detect_all(detector: &SimDetector, samples: &[AvSample]) -> Vec<Vec<Detection>> {
    samples
        .iter()
        .map(|s| detector.detect_frame(frame_key(s), &s.signals))
        .collect()
}

/// Builds the assertion-facing [`AvFrame`] for one sample.
pub fn av_frame(sample: &AvSample, dets: &[Detection]) -> AvFrame {
    AvFrame {
        time: sample.time,
        camera_dets: dets.iter().map(|d| d.scored).collect(),
        lidar_boxes: sample
            .lidar
            .iter()
            .filter(|l| l.score >= LIDAR_SCORE_MIN)
            .map(|l| l.bbox)
            .collect(),
        camera: sample.camera,
    }
}

/// Single-class mAP (percent) of the camera detector on samples.
pub fn evaluate_map(detector: &SimDetector, samples: &[AvSample]) -> f64 {
    let mut ev = DetectionEvaluator::new(0.5);
    for sample in samples {
        let dets = detector.detect_frame(frame_key(sample), &sample.signals);
        let scored: Vec<ScoredBox> = dets
            .iter()
            .map(|d| ScoredBox {
                class: 0,
                ..d.scored
            })
            .collect();
        let gts: Vec<GtBox> = sample
            .gt_2d
            .iter()
            .map(|g| GtBox {
                bbox: g.bbox,
                class: 0,
            })
            .collect();
        ev.add_frame(&scored, &gts);
    }
    ev.map_percent()
}

/// The AV weak-supervision experiment (Table 4, row 2): LIDAR-imputed
/// boxes fine-tune the camera model.
fn av_weak_supervision(
    scenario: &AvScenario,
    detector: &SimDetector,
    epochs: usize,
    rng: &mut StdRng,
) -> (f64, f64) {
    let before = evaluate_map(detector, &scenario.test);
    let dets = detect_all(detector, &scenario.pool);
    let batch = omg_domains::weak::av_weak_batch(&scenario.pool, &dets, 0.5);
    let mut tuned = detector.clone();
    if !batch.is_empty() {
        tuned.train(&batch, epochs, rng);
    }
    let after = evaluate_map(&tuned, &scenario.test);
    (before, after)
}

impl Scenario for AvScenario {
    type Item = AvFrame;
    type Sample = AvFrame;
    type Prep = Vec<BBox2D>;
    type Model = SimDetector;
    type Labels = TrainingBatch;

    fn name(&self) -> &'static str {
        "av"
    }

    fn title(&self) -> &'static str {
        "AVs"
    }

    fn metric_unit(&self) -> &'static str {
        "mAP"
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn pretrained_model(&self, seed: u64) -> SimDetector {
        pretrained_camera(seed)
    }

    fn run_model(&self, model: &SimDetector) -> Vec<AvFrame> {
        self.pool
            .iter()
            .map(|s| av_frame(s, &model.detect_frame(frame_key(s), &s.signals)))
            .collect()
    }

    fn assertion_set(&self) -> omg_core::AssertionSet<AvFrame> {
        av_assertion_set()
    }

    fn prepared_set(&self) -> omg_core::AssertionSet<AvFrame, Vec<BBox2D>> {
        av_prepared_assertion_set()
    }

    fn preparer(&self) -> Box<dyn omg_core::stream::Prepare<AvFrame, Prepared = Vec<BBox2D>>> {
        Box::new(AvPrepare)
    }

    fn make_sample(&self, items: &[AvFrame], center: usize) -> AvFrame {
        // PANIC: the drivers pass center < items.len() by contract.
        items[center].clone()
    }

    fn uncertainty(&self, item: &AvFrame) -> f64 {
        detection_uncertainty(item.camera_dets.iter().map(|d| d.score))
    }

    fn initial_labels(&self) -> TrainingBatch {
        TrainingBatch::new()
    }

    fn label_into(&self, labels: &mut TrainingBatch, pool_index: usize) {
        for signal in &self.pool[pool_index].signals {
            if signal.is_clutter() {
                labels.add_labeled_background(signal);
            } else {
                labels.add_labeled_object(signal);
            }
        }
    }

    fn train(&self, model: &mut SimDetector, labels: &TrainingBatch, rng: &mut StdRng) {
        if !labels.is_empty() {
            model.train(labels, 4, rng);
        }
    }

    fn evaluate(&self, model: &SimDetector) -> f64 {
        evaluate_map(model, &self.test)
    }

    fn weak_supervision(&self, model: &SimDetector, rng: &mut StdRng) -> Option<(f64, f64)> {
        Some(av_weak_supervision(self, model, 2, rng))
    }
}

/// Builds the standard pretrained camera detector for the AV experiments
/// (higher detection noise: the AV camera is a harder deployment).
pub fn pretrained_camera(seed: u64) -> SimDetector {
    let config = DetectorConfig {
        detect_temperature: 2.6,
        ..DetectorConfig::default()
    };
    SimDetector::pretrained(config, seed)
}

/// The registry's shared pretrained camera (model seed 1); see
/// [`crate::video::shared_pretrained_detector`] for why it is cached.
pub fn shared_pretrained_camera() -> &'static SimDetector {
    static CAMERA: OnceLock<SimDetector> = OnceLock::new();
    CAMERA.get_or_init(|| pretrained_camera(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_active::ActiveLearner;
    use omg_core::runtime::ThreadPool;
    use omg_scenario::{score_scenario, stream_score_scenario, ScenarioLearner};
    use rand::SeedableRng;

    fn tiny() -> AvScenario {
        AvScenario::new(9, 4, 2)
    }

    #[test]
    fn scenario_sizes() {
        let s = tiny();
        assert_eq!(s.pool.len(), 80);
        assert_eq!(s.test.len(), 40);
    }

    #[test]
    fn scoring_has_two_assertion_dims() {
        let s = tiny();
        let items = s.run_model(&pretrained_camera(1));
        let (sev, unc) = score_scenario(&s, &s.assertion_set(), &items, &ThreadPool::new(4));
        assert!(sev.iter_rows().all(|r| r.len() == 2));
        assert_eq!(unc.len(), 80);
        let agree_fires: f64 = sev.iter_rows().map(|r| r[0]).sum();
        assert!(
            agree_fires > 0.0,
            "camera misses with LIDAR hits must trip agree"
        );
    }

    #[test]
    fn map_is_low_but_positive_for_pretrained_camera() {
        let s = tiny();
        let det = pretrained_camera(1);
        let map = evaluate_map(&det, &s.test);
        assert!(map > 1.0, "mAP% {map}");
        assert!(map < 90.0, "mAP% {map} suspiciously high for dusk camera");
    }

    #[test]
    fn stream_scoring_matches_batch_scoring() {
        let s = tiny();
        let items = s.run_model(&pretrained_camera(1));
        let want = score_scenario(&s, &s.assertion_set(), &items, &ThreadPool::sequential());
        let prepared = s.prepared_set();
        let preparer = s.preparer();
        for threads in [1, 2, 8] {
            assert_eq!(
                stream_score_scenario(&s, &prepared, &preparer, &items, &ThreadPool::new(threads)),
                want,
                "streaming AV scoring diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn duplicate_selection_claims_each_sample_once() {
        let s = tiny();
        let mut learner = ScenarioLearner::new(s, pretrained_camera(1));
        let mut rng = StdRng::seed_from_u64(3);
        learner.label_and_train(&[0, 0, 1, 0], &mut rng);
        assert_eq!(learner.pool().len(), 78, "two distinct samples claimed");
    }

    #[test]
    fn learner_round_trip() {
        let s = tiny();
        let mut learner = ScenarioLearner::new(s, pretrained_camera(1));
        let mut rng = StdRng::seed_from_u64(3);
        let pool = learner.pool();
        assert_eq!(pool.len(), 80);
        learner.label_and_train(&[0, 1, 2, 3, 4], &mut rng);
        assert_eq!(learner.pool().len(), 75);
        let m = learner.evaluate();
        assert!(m >= 0.0);
    }

    #[test]
    fn weak_supervision_runs() {
        let s = tiny();
        let det = pretrained_camera(1);
        let mut rng = StdRng::seed_from_u64(4);
        let (before, after) = av_weak_supervision(&s, &det, 6, &mut rng);
        assert!(before >= 0.0 && after >= 0.0);
    }
}
