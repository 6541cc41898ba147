//! A trainable simulated object detector.
//!
//! [`SimDetector`] stands in for the paper's ResNet-34 SSD. It is *not* a
//! lookup table: detection, classification, and duplicate suppression are
//! three logistic heads over object appearance features, trained with SGD
//! (`omg-learn`). Pretrained on a clean "still-image" domain
//! ([`DomainConditions::day`]) and deployed on night video, it reproduces
//! the systematic error classes the paper documents:
//!
//! * **flicker** — hard objects get mid-range detection probabilities, so
//!   per-frame Bernoulli draws make them blink in and out (Figure 1);
//! * **multibox** — the duplicate head fires on large/dark objects,
//!   emitting overlapping boxes (Figure 7);
//! * **systematic misclassification** — the night-time channel bias lands
//!   deep inside the wrong class region, producing errors *with high
//!   confidence* (§5.3);
//! * **false positives** — night clutter picks up the same channel bias
//!   and fools the detection head.
//!
//! Training on labeled or weakly labeled night data genuinely moves the
//! heads' weights and shrinks all of these error modes, which is the
//! mechanism behind the active-learning (Figure 4) and weak-supervision
//! (Table 4) experiments.

use omg_eval::ScoredBox;
use omg_geom::BBox2D;
use rand::rngs::StdRng;
use rand::Rng;

use crate::signal::{normal, CLUTTER_CLASS};
use crate::{derive_rng, AppearanceModel, DomainConditions, ObjectSignal, APP_DIM, NUM_CLASSES};
use omg_learn::{Dataset, SoftmaxRegression};

/// Configuration of a [`SimDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Localization jitter in pixels (scaled up for low-quality objects).
    pub loc_jitter: f64,
    /// Learning rate used for all three heads.
    pub lr: f64,
    /// Seed of the per-frame detection noise streams.
    pub seed: u64,
    /// Softening applied to the detection head's logit: the effective
    /// detection probability is `sigmoid(logit / detect_temperature)`.
    ///
    /// This models per-frame sensor/threshold noise around the objectness
    /// boundary: a value above 1 keeps marginal objects in the mid-range
    /// where independent per-frame draws *flicker*, and makes training
    /// progress gradual (margins must grow before detection saturates).
    pub detect_temperature: f64,
    /// Temperature on the classification head's reported probabilities
    /// (argmax-invariant, so accuracy is unaffected).
    ///
    /// An unregularized softmax trained to convergence is wildly
    /// overconfident — nearly every prediction saturates at `p > 0.99`,
    /// collapsing the confidence distribution into a spike. Reported
    /// confidences in real detectors are softer than the raw head; this
    /// temperature restores that spread so confidence *ranks* detections
    /// (which both mAP and the §5.3 confidence-percentile analysis need).
    pub cls_temperature: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            loc_jitter: 2.5,
            lr: 0.025,
            seed: 0xDE7EC7,
            detect_temperature: 2.0,
            cls_temperature: 2.5,
        }
    }
}

/// Learning rate used during synthetic pretraining (fine-tuning uses the
/// much smaller `DetectorConfig::lr`, so active-learning gains accrue
/// over rounds rather than saturating immediately).
const PRETRAIN_LR: f64 = 0.3;

/// Width (in logit units) of the boundary band inside which
/// [`DetectorConfig::detect_temperature`] softens the detection head's
/// *rejections*; see [`SimDetector::detect_probability`].
const TEMPERATURE_BAND: f64 = 1.0;

/// Where a detection came from — ground truth the *simulator* keeps for
/// evaluation; assertions only ever see the [`ScoredBox`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// A detection of a real object.
    Object {
        /// The underlying object's track id.
        track_id: u64,
        /// The object's true class.
        true_class: usize,
    },
    /// A spurious duplicate of a real object's detection (a multibox
    /// error).
    Duplicate {
        /// The duplicated object's track id.
        track_id: u64,
        /// The object's true class.
        true_class: usize,
    },
    /// A false positive on background clutter.
    Clutter {
        /// The clutter patch's id.
        track_id: u64,
    },
}

/// One detector output with its (simulator-side) provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// What downstream consumers (assertions, trackers, evaluation) see.
    pub scored: ScoredBox,
    /// Ground-truth provenance, for precision analysis only.
    pub provenance: Provenance,
}

impl Detection {
    /// Whether this detection is erroneous: a false positive, a duplicate,
    /// or a real object with the wrong class label.
    pub fn is_error(&self) -> bool {
        match self.provenance {
            Provenance::Object { true_class, .. } => self.scored.class != true_class,
            Provenance::Duplicate { .. } | Provenance::Clutter { .. } => true,
        }
    }

    /// The underlying track id (object, duplicate source, or clutter
    /// patch).
    pub fn track_id(&self) -> u64 {
        match self.provenance {
            Provenance::Object { track_id, .. }
            | Provenance::Duplicate { track_id, .. }
            | Provenance::Clutter { track_id } => track_id,
        }
    }
}

/// Accumulates supervised and weakly supervised examples for
/// [`SimDetector::train`].
#[derive(Debug, Clone)]
pub struct TrainingBatch {
    det: Dataset,
    cls: Dataset,
    dup: Dataset,
}

impl TrainingBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self {
            det: Dataset::new(APP_DIM),
            cls: Dataset::new(APP_DIM),
            dup: Dataset::new(APP_DIM),
        }
    }

    /// Adds a human-labeled real object: teaches the detection head to
    /// fire, the class head its true class, and the duplicate head to stay
    /// quiet.
    ///
    /// # Panics
    ///
    /// Panics if the signal is clutter.
    pub fn add_labeled_object(&mut self, signal: &ObjectSignal) {
        assert!(
            !signal.is_clutter(),
            "use add_labeled_background for clutter"
        );
        self.det.push(signal.appearance.clone(), 1);
        self.cls.push(signal.appearance.clone(), signal.true_class);
        self.dup.push(signal.appearance.clone(), 0);
    }

    /// Adds a human-labeled background patch (teaches the detection head
    /// to abstain).
    pub fn add_labeled_background(&mut self, signal: &ObjectSignal) {
        self.det.push(signal.appearance.clone(), 0);
    }

    /// Adds a weak positive box (from a flicker-gap `Add` correction or a
    /// LIDAR-imputed box): the appearance is the image patch at the
    /// proposed box; `weight < 1` reflects weak-label noise.
    pub fn add_weak_box(&mut self, appearance: Vec<f64>, class: usize, weight: f64) {
        self.det.push_weighted(appearance.clone(), 1, weight);
        self.cls.push_weighted(appearance, class, weight);
    }

    /// Adds a weak duplicate-removal example (from a `Remove` correction
    /// on a multibox cluster): teaches the duplicate head to stay quiet on
    /// this appearance.
    pub fn add_weak_remove(&mut self, appearance: Vec<f64>, weight: f64) {
        self.dup.push_weighted(appearance, 0, weight);
    }

    /// Adds a weak background example (from a `Remove` correction on a
    /// spurious blip): teaches the detection head to abstain on this
    /// appearance.
    pub fn add_weak_background(&mut self, appearance: Vec<f64>, weight: f64) {
        self.det.push_weighted(appearance, 0, weight);
    }

    /// Adds a weak class correction (from a majority-vote `SetAttr`).
    pub fn add_weak_class(&mut self, appearance: Vec<f64>, class: usize, weight: f64) {
        self.cls.push_weighted(appearance, class, weight);
    }

    /// Number of detection-head examples.
    pub fn len_det(&self) -> usize {
        self.det.len()
    }

    /// Number of class-head examples.
    pub fn len_cls(&self) -> usize {
        self.cls.len()
    }

    /// Number of duplicate-head examples.
    pub fn len_dup(&self) -> usize {
        self.dup.len()
    }

    /// Whether the batch holds no examples at all.
    pub fn is_empty(&self) -> bool {
        self.det.is_empty() && self.cls.is_empty() && self.dup.is_empty()
    }
}

impl Default for TrainingBatch {
    fn default() -> Self {
        Self::new()
    }
}

/// The trainable simulated detector (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct SimDetector {
    det_head: SoftmaxRegression,
    cls_head: SoftmaxRegression,
    dup_head: SoftmaxRegression,
    config: DetectorConfig,
}

impl SimDetector {
    /// Creates an *untrained* detector (uniform heads). Most callers want
    /// [`SimDetector::pretrained`].
    fn untrained(config: DetectorConfig) -> Self {
        let lr = config.lr;
        Self {
            det_head: SoftmaxRegression::new(APP_DIM, 2, lr),
            cls_head: SoftmaxRegression::new(APP_DIM, NUM_CLASSES, lr),
            dup_head: SoftmaxRegression::new(APP_DIM, 2, lr),
            config,
        }
    }

    /// Pretrains a detector on a synthetic clean daytime corpus — the
    /// stand-in for "SSD pretrained on MS-COCO still images" (§5.1).
    ///
    /// The pretrained detector is near-perfect on daytime data and
    /// systematically wrong on night data.
    pub fn pretrained(config: DetectorConfig, seed: u64) -> Self {
        let mut detector = Self::untrained(config);
        let day = AppearanceModel::new(DomainConditions::day());
        let mut rng = derive_rng(seed, 0xC0C0);
        let mut batch = TrainingBatch::new();
        for i in 0..4000u64 {
            let class = (i % NUM_CLASSES as u64) as usize;
            // Still-image corpora include moderately hard examples
            // (shade, partial occlusion), so the pretrained boundary
            // sits fairly low — but *above* the activation range of
            // night-time dark vehicles, which therefore land in the
            // flickering mid-probability zone. The low-light band itself
            // stays untrained (no night data in the corpus).
            let quality = rng.gen_range(0.5..1.0);
            let size = rng.gen_range(0.05..0.6);
            let occl = rng.gen_range(0.0..0.3);
            let speed = rng.gen_range(0.0..1.0);
            let app = day.object_appearance(class, quality, size, occl, speed, &mut rng);
            batch.det.push(app.clone(), 1);
            batch.cls.push(app.clone(), class);
            // Daytime duplicate statistics: rare, slightly more common for
            // big boxes and at the dim end of the daytime brightness
            // range. The learned negative brightness weight is what makes
            // duplicates *flare up* at night — genuine extrapolation
            // failure under domain shift.
            let p_dup = 0.03 + 0.10 * size + 0.15 * (0.85 - app[3]).max(0.0);
            let dup = rng.gen_bool(p_dup.clamp(0.0, 1.0));
            batch.dup.push(app, usize::from(dup));
        }
        for _ in 0..3000 {
            let size = rng.gen_range(0.02..0.45);
            let app = day.clutter_appearance(size, &mut rng);
            batch.det.push(app, 0);
        }
        detector.set_lr(PRETRAIN_LR);
        detector.train(&batch, 30, &mut rng);
        detector.set_lr(detector.config.lr);
        detector
    }

    /// Replaces the learning rate of all three heads.
    pub fn set_lr(&mut self, lr: f64) {
        self.det_head.set_lr(lr);
        self.cls_head.set_lr(lr);
        self.dup_head.set_lr(lr);
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Detection probability for one signal: the detection head's
    /// positive-class probability with the configured temperature applied
    /// to its logit.
    ///
    /// The temperature models per-frame sensor/threshold noise. On the
    /// *accept* side the whole logit is softened — that is the flickering
    /// mid-probability zone marginal objects (night-time dark vehicles)
    /// live in. On the *reject* side only `TEMPERATURE_BAND` logits
    /// around the boundary are softened: threshold noise smears decisions
    /// the head is unsure about, but does not flip patches it rejects by
    /// a wide margin, so confidently rejected clutter blinks in only on
    /// rare noise spikes rather than every few frames.
    pub fn detect_probability(&self, signal: &ObjectSignal) -> f64 {
        let p = self.det_head.predict_proba(&signal.appearance)[1].clamp(1e-9, 1.0 - 1e-9);
        let logit = (p / (1.0 - p)).ln();
        let t = self.config.detect_temperature;
        let softened = if logit >= 0.0 {
            logit / t
        } else {
            let mag = -logit;
            -(mag.min(TEMPERATURE_BAND) / t + (mag - TEMPERATURE_BAND).max(0.0))
        };
        1.0 / (1.0 + (-softened).exp())
    }

    /// Class distribution the detector would assign to one signal, with
    /// [`DetectorConfig::cls_temperature`] applied (argmax-invariant).
    fn class_probabilities(&self, signal: &ObjectSignal) -> Vec<f64> {
        let probs = self.cls_head.predict_proba(&signal.appearance);
        let t = self.config.cls_temperature;
        if (t - 1.0).abs() < 1e-12 {
            return probs;
        }
        // Dividing log-probabilities by the temperature and renormalizing
        // is the same as re-softmaxing the head's logits at temperature t.
        let scaled: Vec<f64> = probs
            .iter()
            .map(|p| (p.clamp(1e-300, 1.0).ln() / t).exp())
            .collect();
        let z: f64 = scaled.iter().sum();
        scaled.iter().map(|s| s / z).collect()
    }

    /// Duplicate probability for one signal.
    fn duplicate_probability(&self, signal: &ObjectSignal) -> f64 {
        self.dup_head.predict_proba(&signal.appearance)[1]
    }

    /// Runs the detector on one frame's signals.
    ///
    /// Randomness is drawn from a stream keyed by `(config.seed,
    /// frame_index, track_id)`, so re-running the same frame with a
    /// retrained model replays the same noise: improvements come from the
    /// model, not RNG drift.
    pub fn detect_frame(&self, frame_index: u64, signals: &[ObjectSignal]) -> Vec<Detection> {
        let mut out = Vec::new();
        for signal in signals {
            let mut rng = derive_rng(
                self.config.seed,
                frame_index
                    .wrapping_mul(0x0100_0001)
                    .wrapping_add(signal.track_id),
            );
            // Fixed draw order regardless of branching, for stability.
            let u_det: f64 = rng.gen();
            let u_cls: f64 = rng.gen();
            let u_dup: f64 = rng.gen();
            let u_ndup: f64 = rng.gen();
            let jitter: Vec<f64> = (0..10).map(|_| normal(&mut rng)).collect();

            let p_det = self.detect_probability(signal);
            if u_det >= p_det {
                continue; // missed (a flicker frame if neighbors detect it)
            }
            let cls_probs = self.class_probabilities(signal);
            let class = sample_class(&cls_probs, u_cls);
            // Confidence is dominated by the classification head — the
            // head that domain shift *miscalibrates*. This is what makes
            // high-confidence errors (§5.3): a night-time clutter patch
            // or duplicate can carry a very confident class score even
            // though the detection is garbage.
            let confidence = (0.25 * p_det + 0.75 * cls_probs[class]).clamp(0.01, 0.999);
            let sigma = self.config.loc_jitter * (1.2 - signal.quality);
            let bbox = jittered_box(&signal.bbox, sigma, &jitter[0..4]);
            let provenance = if signal.true_class == CLUTTER_CLASS {
                Provenance::Clutter {
                    track_id: signal.track_id,
                }
            } else {
                Provenance::Object {
                    track_id: signal.track_id,
                    true_class: signal.true_class,
                }
            };
            out.push(Detection {
                scored: ScoredBox {
                    bbox,
                    class,
                    score: confidence,
                },
                provenance,
            });

            // Multibox duplicates (real objects only — clutter FPs are
            // already errors on their own).
            if signal.true_class != CLUTTER_CLASS {
                let p_dup = self.duplicate_probability(signal);
                if u_dup < p_dup {
                    let n_extra = if u_ndup < 0.4 { 2 } else { 1 };
                    for e in 0..n_extra {
                        let off = 0.18 * signal.bbox.width().max(8.0);
                        let dir = if e == 0 { 1.0 } else { -1.0 };
                        let dup_box = jittered_box(
                            &signal.bbox.translated(dir * off, dir * off * 0.4),
                            sigma,
                            &jitter[4 + 2 * e..8 + 2 * e],
                        );
                        out.push(Detection {
                            scored: ScoredBox {
                                bbox: dup_box,
                                class,
                                // Duplicates carry the primary box's
                                // confidence — which is why NMS keys on
                                // IoU, not score, and why multibox errors
                                // reach the top confidence percentiles
                                // (§5.3).
                                score: confidence,
                            },
                            provenance: Provenance::Duplicate {
                                track_id: signal.track_id,
                                true_class: signal.true_class,
                            },
                        });
                    }
                }
            }
        }
        out
    }

    /// Trains all three heads on a batch for the given number of epochs.
    pub fn train(&mut self, batch: &TrainingBatch, epochs: usize, rng: &mut StdRng) {
        for _ in 0..epochs {
            if !batch.det.is_empty() {
                self.det_head.train_epoch(&batch.det, 32, rng);
            }
            if !batch.cls.is_empty() {
                self.cls_head.train_epoch(&batch.cls, 32, rng);
            }
            if !batch.dup.is_empty() {
                self.dup_head.train_epoch(&batch.dup, 32, rng);
            }
        }
    }
}

/// Samples a class index from a probability vector using a single uniform
/// draw.
fn sample_class(probs: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// Applies Gaussian jitter (first four entries of `noise`) to a box,
/// keeping it valid.
fn jittered_box(bbox: &BBox2D, sigma: f64, noise: &[f64]) -> BBox2D {
    let x1 = bbox.x1() + noise[0] * sigma;
    let y1 = bbox.y1() + noise[1] * sigma;
    let x2 = bbox.x2() + noise[2] * sigma;
    let y2 = bbox.y2() + noise[3] * sigma;
    BBox2D::new(x1.min(x2), y1.min(y2), x1.max(x2), y1.max(y2))
        .expect("jittered coordinates are finite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::CLUTTER_CLASS;

    fn day_signal(class: usize, quality: f64, seed: u64) -> ObjectSignal {
        let model = AppearanceModel::new(DomainConditions::day());
        let mut rng = derive_rng(seed, 77);
        ObjectSignal {
            track_id: seed,
            true_class: class,
            bbox: BBox2D::new(100.0, 100.0, 200.0, 180.0).unwrap(),
            appearance: model.object_appearance(class, quality, 0.3, 0.0, 0.3, &mut rng),
            quality,
        }
    }

    fn night_signal(class: usize, quality: f64, seed: u64) -> ObjectSignal {
        let model = AppearanceModel::new(DomainConditions::night());
        let mut rng = derive_rng(seed, 78);
        ObjectSignal {
            track_id: seed,
            true_class: class,
            bbox: BBox2D::new(100.0, 100.0, 200.0, 180.0).unwrap(),
            appearance: model.object_appearance(class, quality, 0.3, 0.0, 0.3, &mut rng),
            quality,
        }
    }

    #[test]
    fn pretrained_detects_day_objects_reliably() {
        let det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let mut p_sum = 0.0;
        for s in 0..50 {
            p_sum += det.detect_probability(&day_signal(s as usize % 3, 0.8, s)) / 50.0;
        }
        // The detection temperature (sensor/threshold noise) caps even
        // easy-domain probabilities below saturation.
        assert!(p_sum > 0.82, "day detection probability too low: {p_sum}");
    }

    #[test]
    fn pretrained_rejects_day_clutter() {
        let det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let model = AppearanceModel::new(DomainConditions::day());
        let mut rng = derive_rng(5, 79);
        let mut p_sum = 0.0;
        for s in 0..50u64 {
            let signal = ObjectSignal {
                track_id: s,
                true_class: CLUTTER_CLASS,
                bbox: BBox2D::new(0.0, 0.0, 30.0, 30.0).unwrap(),
                appearance: model.clutter_appearance(0.05, &mut rng),
                quality: 0.5,
            };
            p_sum += det.detect_probability(&signal) / 50.0;
        }
        assert!(p_sum < 0.25, "day clutter FP probability too high: {p_sum}");
    }

    #[test]
    fn night_failures_concentrate_on_dark_vehicles() {
        // The domain shift is structured: well-lit vehicles survive the
        // night, dark ones drop into the flickering mid-probability zone
        // (they fall in the untrained low-light band).
        let det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let avg = |mk: fn(usize, f64, u64) -> ObjectSignal, q: f64| -> f64 {
            (0..60)
                .map(|s| det.detect_probability(&mk(0, q, s)))
                .sum::<f64>()
                / 60.0
        };
        let day_easy = avg(day_signal, 0.85);
        let night_easy = avg(night_signal, 0.85);
        let night_dark = avg(night_signal, 0.35);
        assert!(day_easy > 0.85, "day easy p {day_easy}");
        assert!(night_easy > 0.75, "night easy p {night_easy}");
        assert!(
            night_dark < 0.75,
            "night dark vehicles must be flicker-prone: {night_dark}"
        );
        assert!(
            night_dark < night_easy - 0.2,
            "failures must concentrate on the dark subpopulation: easy {night_easy}, dark {night_dark}"
        );
    }

    #[test]
    fn night_classification_degrades() {
        let det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let acc = |mk: fn(usize, f64, u64) -> ObjectSignal| {
            let mut hits = 0;
            for s in 0..120u64 {
                let class = (s % 3) as usize;
                let sig = mk(class, 0.7, s);
                let probs = det.class_probabilities(&sig);
                let pred = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                hits += usize::from(pred == class);
            }
            hits as f64 / 120.0
        };
        let day_acc = acc(day_signal);
        let night_acc = acc(night_signal);
        assert!(day_acc > 0.9, "day class accuracy {day_acc}");
        assert!(
            night_acc < day_acc - 0.05,
            "night class accuracy should drop: day {day_acc}, night {night_acc}"
        );
    }

    #[test]
    fn training_on_night_data_improves_night_detection() {
        let mut det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let before: f64 = (0..40)
            .map(|s| det.detect_probability(&night_signal(0, 0.5, 1000 + s)))
            .sum::<f64>()
            / 40.0;
        let mut batch = TrainingBatch::new();
        for s in 0..200 {
            batch.add_labeled_object(&night_signal((s % 3) as usize, 0.5, 2000 + s));
        }
        let mut rng = derive_rng(3, 80);
        det.train(&batch, 10, &mut rng);
        let after: f64 = (0..40)
            .map(|s| det.detect_probability(&night_signal(0, 0.5, 1000 + s)))
            .sum::<f64>()
            / 40.0;
        assert!(
            after > before + 0.05,
            "training should improve night detection: {before} -> {after}"
        );
    }

    #[test]
    fn detect_frame_is_deterministic() {
        let det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let signals: Vec<ObjectSignal> = (0..10).map(|s| night_signal(0, 0.5, s)).collect();
        let a = det.detect_frame(7, &signals);
        let b = det.detect_frame(7, &signals);
        assert_eq!(a, b);
    }

    #[test]
    fn different_frames_give_different_noise() {
        let det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let signals: Vec<ObjectSignal> = (0..30).map(|s| night_signal(0, 0.5, s)).collect();
        let a = det.detect_frame(1, &signals);
        let b = det.detect_frame(2, &signals);
        // With mid-range probabilities the two frames should disagree on
        // at least one object — that is exactly flicker.
        assert_ne!(a, b);
    }

    #[test]
    fn duplicates_are_rare_in_day_and_marked() {
        let det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let signals: Vec<ObjectSignal> = (0..100).map(|s| day_signal(0, 0.9, s)).collect();
        let mut dups = 0;
        let mut total = 0;
        for f in 0..10 {
            for d in det.detect_frame(f, &signals) {
                total += 1;
                if matches!(d.provenance, Provenance::Duplicate { .. }) {
                    dups += 1;
                    assert!(d.is_error());
                }
            }
        }
        assert!(total > 0);
        let rate = dups as f64 / total as f64;
        assert!(rate < 0.25, "daytime duplicate rate too high: {rate}");
    }

    #[test]
    fn night_duplicates_exceed_day_duplicates() {
        let det = SimDetector::pretrained(DetectorConfig::default(), 1);
        let day: f64 = (0..60)
            .map(|s| det.duplicate_probability(&day_signal(0, 0.7, s)))
            .sum::<f64>()
            / 60.0;
        let night: f64 = (0..60)
            .map(|s| det.duplicate_probability(&night_signal(0, 0.7, s)))
            .sum::<f64>()
            / 60.0;
        assert!(
            night > day,
            "night duplicates should exceed day: day {day}, night {night}"
        );
    }

    #[test]
    fn error_flags_follow_provenance() {
        let d = Detection {
            scored: ScoredBox {
                bbox: BBox2D::new(0.0, 0.0, 1.0, 1.0).unwrap(),
                class: 1,
                score: 0.9,
            },
            provenance: Provenance::Object {
                track_id: 3,
                true_class: 1,
            },
        };
        assert!(!d.is_error());
        assert_eq!(d.track_id(), 3);
        let wrong = Detection {
            provenance: Provenance::Object {
                track_id: 3,
                true_class: 0,
            },
            ..d.clone()
        };
        assert!(wrong.is_error());
        let clutter = Detection {
            provenance: Provenance::Clutter { track_id: 9 },
            ..d
        };
        assert!(clutter.is_error());
    }

    #[test]
    fn sample_class_respects_cdf() {
        assert_eq!(sample_class(&[0.2, 0.5, 0.3], 0.1), 0);
        assert_eq!(sample_class(&[0.2, 0.5, 0.3], 0.3), 1);
        assert_eq!(sample_class(&[0.2, 0.5, 0.3], 0.95), 2);
        assert_eq!(sample_class(&[0.2, 0.5, 0.3], 1.5), 2);
    }

    #[test]
    fn training_batch_accounting() {
        let mut b = TrainingBatch::new();
        assert!(b.is_empty());
        b.add_labeled_object(&day_signal(1, 0.8, 1));
        b.add_weak_box(vec![0.0; APP_DIM], 0, 0.5);
        b.add_weak_remove(vec![0.0; APP_DIM], 0.5);
        b.add_weak_class(vec![0.0; APP_DIM], 2, 0.5);
        assert_eq!(b.len_det(), 2);
        assert_eq!(b.len_cls(), 3);
        assert_eq!(b.len_dup(), 2);
    }

    #[test]
    #[should_panic(expected = "background")]
    fn clutter_rejected_as_labeled_object() {
        let mut b = TrainingBatch::new();
        let mut s = day_signal(0, 0.8, 1);
        s.true_class = CLUTTER_CLASS;
        b.add_labeled_object(&s);
    }
}
