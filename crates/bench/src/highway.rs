//! The **highway multi-sensor fusion** scenario — the fifth deployed
//! use case, and the scenario engine's proof of abstraction: it is built
//! entirely from existing `omg-sim` primitives (the traffic world and
//! two independently seeded [`SimDetector`]s) plus the `omg-domains`
//! fusion assertion set, and it required **zero** edits to the generic
//! drivers, the conformance suite, or `exp_throughput` to run end to
//! end (sim → streaming score → active-learning rounds → BENCH JSON).
//!
//! The setup: a six-lane daytime highway watched by a noisy primary
//! camera (the monitored, trainable model) and a cleaner fixed secondary
//! channel (think thermal/radar — like the AV scenario's bootstrapped
//! LIDAR). `fusion-agree` flags frames where the secondary sees a
//! vehicle the primary missed; `fusion-flicker` flags the primary's
//! temporal dropouts. Active learning improves the primary only.

use std::sync::{Arc, OnceLock};

use omg_domains::fusion::{FusionFrame, FusionWindow};
use omg_domains::{fusion_assertion_set, fusion_prepared_assertion_set, FusionPrepare, VideoPrep};
use omg_scenario::{detection_uncertainty, Scenario};
use omg_sim::detector::{Detection, DetectorConfig, SimDetector, TrainingBatch};
use omg_sim::traffic::{GtFrame, TrafficConfig, TrafficWorld};
use rand::rngs::StdRng;

/// The temporal threshold for `fusion-flicker`, seconds (the video
/// scenario's `T`; the highway stream runs at the same 10 fps).
const FUSION_FLICKER_T: f64 = 0.45;

/// Frames of context on each side of a window's center frame.
pub const FUSION_WINDOW_HALF: usize = 2;

/// The highway world: a wider, busier, daytime variant of the street.
fn highway_config() -> TrafficConfig {
    TrafficConfig {
        lanes: 6,
        spawn_prob: 0.03,
        ..TrafficConfig::day_street()
    }
}

/// The fixed configuration of a highway fusion experiment.
#[derive(Debug, Clone)]
pub struct HighwayScenario {
    /// The unlabeled pool stream.
    pub pool_frames: Vec<GtFrame>,
    /// The held-out test stream.
    pub test_frames: Vec<GtFrame>,
    /// The fixed secondary sensor (not improved by labeling, like the
    /// AV scenario's bootstrapped LIDAR).
    secondary: SimDetector,
}

impl HighwayScenario {
    /// Builds the scenario: `pool_len` pool frames and `test_len` test
    /// frames from two different world seeds, with the shared fixed
    /// secondary sensor.
    pub fn highway(seed: u64, pool_len: usize, test_len: usize) -> Self {
        let mut pool_world = TrafficWorld::new(highway_config(), seed);
        let mut test_world = TrafficWorld::new(highway_config(), seed ^ 0x416);
        Self {
            pool_frames: pool_world.steps(pool_len),
            test_frames: test_world.steps(test_len),
            secondary: shared_secondary().clone(),
        }
    }

    /// The experiment-standard sizes (1,000-frame pool, 400-frame test).
    pub fn standard(seed: u64) -> Self {
        Self::highway(seed, 1000, 400)
    }

    /// The fixed secondary sensor.
    pub fn secondary(&self) -> &SimDetector {
        &self.secondary
    }
}

/// One position of the highway stream: the ground-truth frame plus both
/// sensors' outputs on it, all shared, so cloning an item copies no
/// frame (see [`crate::video::VideoItem`]).
#[derive(Debug, Clone)]
pub struct HighwayItem {
    /// The simulated frame (ground truth + detector-facing signals).
    pub gt: Arc<GtFrame>,
    /// The primary (monitored) camera's output.
    pub primary: Arc<[Detection]>,
    /// The secondary (fixed) sensor's output.
    pub secondary: Arc<[Detection]>,
}

/// Builds the standard *primary* camera: noticeably noisier than the
/// secondary (same noise knob as the AV camera), so cross-sensor
/// disagreement and flicker concentrate on the primary's systematic
/// misses — the errors active learning then fixes.
pub fn pretrained_primary(seed: u64) -> SimDetector {
    let config = DetectorConfig {
        detect_temperature: 2.2,
        ..DetectorConfig::default()
    };
    SimDetector::pretrained(config, seed)
}

/// The registry's shared pretrained primary camera (model seed 1); see
/// [`crate::video::shared_pretrained_detector`] for why it is cached.
pub fn shared_pretrained_primary() -> &'static SimDetector {
    static PRIMARY: OnceLock<SimDetector> = OnceLock::new();
    PRIMARY.get_or_init(|| pretrained_primary(1))
}

/// The shared fixed secondary sensor (default config, its own seed):
/// cleaner than the primary, so it confirms vehicles the primary drops.
fn shared_secondary() -> &'static SimDetector {
    static SECONDARY: OnceLock<SimDetector> = OnceLock::new();
    SECONDARY.get_or_init(|| SimDetector::pretrained(DetectorConfig::default(), 2))
}

/// The highway weak-supervision experiment: flicker/duplicate
/// corrections from the primary channel's consistency assertions (the
/// same rules as the video scenario, §4.2) fine-tune the primary camera
/// with no human labels. The secondary sensor is not involved — it has
/// no training access, like the paper's LIDAR.
fn highway_weak_supervision(
    scenario: &HighwayScenario,
    primary: &SimDetector,
    epochs: usize,
    rng: &mut StdRng,
) -> (f64, f64) {
    let before = crate::video::evaluate_map(primary, &scenario.test_frames);
    let dets = crate::video::detect_all(primary, &scenario.pool_frames);
    let batch = omg_domains::weak::video_weak_batch(
        &scenario.pool_frames,
        &dets,
        &omg_domains::weak::VideoWeakConfig::default(),
    );
    let mut tuned = primary.clone();
    if !batch.is_empty() {
        tuned.train(&batch, epochs, rng);
    }
    let after = crate::video::evaluate_map(&tuned, &scenario.test_frames);
    (before, after)
}

impl Scenario for HighwayScenario {
    type Item = HighwayItem;
    type Sample = FusionWindow;
    type Prep = VideoPrep;
    type Model = SimDetector;
    type Labels = TrainingBatch;

    fn name(&self) -> &'static str {
        "highway"
    }

    fn title(&self) -> &'static str {
        "Highway fusion"
    }

    fn metric_unit(&self) -> &'static str {
        "mAP"
    }

    fn window_half(&self) -> usize {
        FUSION_WINDOW_HALF
    }

    fn pool_len(&self) -> usize {
        self.pool_frames.len()
    }

    fn pretrained_model(&self, seed: u64) -> SimDetector {
        pretrained_primary(seed)
    }

    fn run_model(&self, model: &SimDetector) -> Vec<HighwayItem> {
        self.pool_frames
            .iter()
            .map(|f| HighwayItem {
                gt: Arc::new(f.clone()),
                primary: model.detect_frame(f.index, &f.signals).into(),
                secondary: self.secondary.detect_frame(f.index, &f.signals).into(),
            })
            .collect()
    }

    fn assertion_set(&self) -> omg_core::AssertionSet<FusionWindow> {
        fusion_assertion_set(FUSION_FLICKER_T)
    }

    fn prepared_set(&self) -> omg_core::AssertionSet<FusionWindow, VideoPrep> {
        fusion_prepared_assertion_set(FUSION_FLICKER_T)
    }

    fn preparer(&self) -> Box<dyn omg_core::stream::Prepare<FusionWindow, Prepared = VideoPrep>> {
        Box::new(FusionPrepare::new(FUSION_FLICKER_T))
    }

    fn make_sample(&self, items: &[HighwayItem], center: usize) -> FusionWindow {
        let frames = items
            .iter()
            .map(|it| FusionFrame {
                index: it.gt.index,
                time: it.gt.time,
                primary: it.primary.iter().map(|d| d.scored).collect(),
                secondary: it.secondary.iter().map(|d| d.scored).collect(),
            })
            .collect();
        FusionWindow::new(frames, center)
    }

    fn uncertainty(&self, item: &HighwayItem) -> f64 {
        detection_uncertainty(item.primary.iter().map(|d| d.scored.score))
    }

    fn initial_labels(&self) -> TrainingBatch {
        TrainingBatch::new()
    }

    fn label_into(&self, labels: &mut TrainingBatch, pool_index: usize) {
        crate::video::label_frame_into(labels, &self.pool_frames[pool_index]);
    }

    fn train(&self, model: &mut SimDetector, labels: &TrainingBatch, rng: &mut StdRng) {
        if !labels.is_empty() {
            model.train(labels, 4, rng);
        }
    }

    fn evaluate(&self, model: &SimDetector) -> f64 {
        crate::video::evaluate_map(model, &self.test_frames)
    }

    fn weak_supervision(&self, model: &SimDetector, rng: &mut StdRng) -> Option<(f64, f64)> {
        Some(highway_weak_supervision(self, model, 6, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_active::ActiveLearner;
    use omg_core::runtime::ThreadPool;
    use omg_scenario::{score_scenario, stream_score_scenario, ScenarioLearner};
    use rand::SeedableRng;

    fn tiny() -> HighwayScenario {
        HighwayScenario::highway(7, 120, 60)
    }

    #[test]
    fn both_fusion_assertions_fire_on_the_highway() {
        let s = tiny();
        let items = s.run_model(shared_pretrained_primary());
        let set = s.assertion_set();
        let (sev, unc) = score_scenario(&s, &set, &items, &ThreadPool::sequential());
        assert_eq!(sev.len(), 120);
        assert!(unc.iter().all(|&u| (0.0..=1.0).contains(&u)));
        let agree: f64 = sev.iter_rows().map(|r| r[0]).sum();
        let flicker: f64 = sev.iter_rows().map(|r| r[1]).sum();
        assert!(agree > 0.0, "secondary must confirm missed vehicles");
        assert!(flicker > 0.0, "the noisy primary must flicker somewhere");
    }

    #[test]
    fn stream_scoring_matches_batch_scoring() {
        let s = tiny();
        let items = s.run_model(shared_pretrained_primary());
        let want = score_scenario(&s, &s.assertion_set(), &items, &ThreadPool::sequential());
        let prepared = s.prepared_set();
        let preparer = s.preparer();
        for threads in [1, 2, 8] {
            assert_eq!(
                stream_score_scenario(&s, &prepared, &preparer, &items, &ThreadPool::new(threads)),
                want,
                "streaming highway scoring diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn learner_improves_the_primary_only() {
        let s = tiny();
        let secondary_before = s.secondary().clone();
        let mut learner = ScenarioLearner::new(s, shared_pretrained_primary().clone());
        let before = learner.evaluate();
        let mut rng = StdRng::seed_from_u64(11);
        let selection: Vec<usize> = (0..120).step_by(3).collect();
        learner.label_and_train(&selection, &mut rng);
        assert_eq!(learner.unlabeled_len(), 80);
        let after = learner.evaluate();
        assert!(
            after > before - 2.0,
            "labels should not hurt the primary: {before} -> {after}"
        );
        // The secondary is a fixed sensor: training must not touch it.
        let frame = &learner.scenario().test_frames[0];
        assert_eq!(
            learner
                .scenario()
                .secondary()
                .detect_frame(frame.index, &frame.signals),
            secondary_before.detect_frame(frame.index, &frame.signals),
        );
    }
}
