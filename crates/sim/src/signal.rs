use omg_geom::BBox2D;
use rand::Rng;

use self::rand_distr_shim::sample_normal;

/// Number of object classes the detection worlds use (car, truck, bus).
pub const NUM_CLASSES: usize = 3;

/// Pseudo-class index used for background clutter signals.
pub const CLUTTER_CLASS: usize = NUM_CLASSES;

/// Dimensionality of the appearance feature vector.
///
/// Layout: `[0..3)` class-prototype channels, `[3]` brightness,
/// `[4]` normalized size, `[5]` occlusion fraction, `[6]` normalized
/// speed, `[7]` texture/clutterness, `[8]` low-light-band gate,
/// `[9..12)` gated (low-light) prototype channels.
///
/// The gated channels give a *linear* detector head local structure: a
/// weakly lit patch activates only the low-light band, so telling dark
/// vehicles from night clutter requires training examples **from that
/// band** — bright daytime data cannot teach it. This mirrors how a CNN's
/// low-light features stay untrained when the training corpus is bright
/// still images, and it is what makes *which* frames get labeled matter
/// in the active-learning experiments.
pub const APP_DIM: usize = 12;

/// Soft membership of a patch in the low-light band: the patch must be
/// weakly activated (dark object or clutter) *and* the scene must be
/// dark. Daytime scenes (brightness ≈ 0.8) have ambient gate ≈ 0, so
/// bright pretraining data never trains the gated channels; at night the
/// band contains exactly the confusable population — dark vehicles and
/// clutter — while well-lit vehicles stay out of it.
fn dark_gate(strength: f64, ambient_brightness: f64) -> f64 {
    let strength_gate = 1.0 / (1.0 + ((strength - 0.30) / 0.05).exp());
    let ambient_gate = 1.0 / (1.0 + ((ambient_brightness - 0.45) / 0.05).exp());
    strength_gate * ambient_gate
}

/// What the detector "sees" of one object (or clutter patch) in one frame:
/// the stand-in for an image crop.
///
/// The appearance vector is the detector's only input — ground truth never
/// leaks into inference. The world keeps the true class and track id
/// alongside for evaluation and for resolving weak labels back to training
/// patches (the real-world analogue: the image pixels at a proposed box
/// always exist, even when the detector missed the object).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSignal {
    /// Stable identity of the underlying object (unique per world).
    pub track_id: u64,
    /// Ground-truth class (`CLUTTER_CLASS` for background clutter).
    pub true_class: usize,
    /// Ground-truth box in image coordinates.
    pub bbox: BBox2D,
    /// The appearance feature vector (length [`APP_DIM`]).
    pub appearance: Vec<f64>,
    /// Intrinsic visual quality in `(0, 1]` (darkness, distance,
    /// occlusion all lower it); exposed for difficulty analysis.
    pub quality: f64,
}

impl ObjectSignal {
    /// Whether this signal is background clutter rather than a real
    /// object.
    pub fn is_clutter(&self) -> bool {
        self.true_class == CLUTTER_CLASS
    }
}

/// Domain conditions controlling how appearances are rendered — the
/// domain-shift knob.
///
/// The pretraining domain ("MS-COCO still images": bright, clean) and the
/// deployment domain (`night-street`: dark, contrast-attenuated, with a
/// class-confusing sensor bias) differ exactly here, which is what makes
/// the pretrained detector fail systematically on deployment data — the
/// paper's core premise ("domain shift between training and deployment
/// data", §1).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainConditions {
    /// Multiplier on class-prototype strength (day ≈ 1, night ≈ 0.55).
    pub contrast: f64,
    /// Ambient brightness feature value (day ≈ 0.8, night ≈ 0.25).
    pub brightness: f64,
    /// Additive bias on the prototype channels. At night the simulated
    /// sensor bleeds energy into the truck channel, producing
    /// *high-confidence* car→truck misclassifications.
    pub channel_bias: [f64; NUM_CLASSES],
    /// Std-dev of per-frame appearance noise (higher at night).
    pub noise: f64,
}

impl DomainConditions {
    /// The clean daytime/still-image pretraining domain.
    pub fn day() -> Self {
        Self {
            contrast: 1.0,
            brightness: 0.8,
            channel_bias: [0.0; NUM_CLASSES],
            noise: 0.10,
        }
    }

    /// The night-street deployment domain.
    pub fn night() -> Self {
        Self {
            contrast: 0.75,
            brightness: 0.25,
            channel_bias: [0.0, 0.26, 0.0],
            noise: 0.15,
        }
    }
}

/// Renders appearance vectors for objects and clutter under given domain
/// conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct AppearanceModel {
    conditions: DomainConditions,
}

impl AppearanceModel {
    /// Creates a model for the given conditions.
    pub fn new(conditions: DomainConditions) -> Self {
        Self { conditions }
    }

    /// The conditions in effect.
    pub fn conditions(&self) -> &DomainConditions {
        &self.conditions
    }

    /// Renders the appearance of a real object.
    ///
    /// * `class` — true class in `0..NUM_CLASSES`;
    /// * `quality` — intrinsic visibility in `(0, 1]`;
    /// * `size` — normalized box size in `[0, 1]`;
    /// * `occlusion` — occluded fraction in `[0, 1]`;
    /// * `speed` — normalized speed in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= NUM_CLASSES`.
    pub fn object_appearance<R: Rng>(
        &self,
        class: usize,
        quality: f64,
        size: f64,
        occlusion: f64,
        speed: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        assert!(class < NUM_CLASSES, "class {class} out of range");
        let c = &self.conditions;
        // Quality bites superlinearly: well-lit objects stay easy at
        // night, dark ones fall off a cliff — failures concentrate on a
        // subpopulation instead of afflicting every object equally.
        let strength = c.contrast * quality.powf(1.6) * (1.0 - 0.7 * occlusion);
        let mut app = vec![0.0; APP_DIM];
        // PANIC: fixed feature layout — app has APP_DIM (12) slots and
        // every subscript below is a constant < 9 or k < NUM_CLASSES (3).
        for (k, bias) in c.channel_bias.iter().enumerate() {
            let proto = if k == class { strength } else { 0.0 };
            app[k] = proto + bias + sample_normal(rng) * c.noise;
        }
        app[3] = c.brightness + sample_normal(rng) * 0.15;
        app[4] = size;
        app[5] = occlusion;
        app[6] = speed;
        app[7] = 0.25 + sample_normal(rng).abs() * 0.12;
        let gate = dark_gate(strength, c.brightness);
        // PANIC: slots 8 and 9 + k with k < NUM_CLASSES stay below
        // APP_DIM = 9 + NUM_CLASSES.
        app[8] = gate;
        for k in 0..NUM_CLASSES {
            app[9 + k] = gate * app[k];
        }
        app
    }

    /// Renders the appearance of a background clutter patch (reflections,
    /// shadows, signage): weak, classless prototype activation and high
    /// texture. At night, clutter gets the same channel bias as objects,
    /// which is what lets it fool a domain-shifted detector.
    pub fn clutter_appearance<R: Rng>(&self, size: f64, rng: &mut R) -> Vec<f64> {
        let c = &self.conditions;
        let mut app = vec![0.0; APP_DIM];
        let base = rng.gen_range(0.0..0.10);
        // The night channel bias couples into clutter at a fraction of its
        // object strength: reflective background picks up some of the
        // sensor's spectral bias, but much less than metal vehicle bodies.
        // PANIC: fixed feature layout — constant slots < 9 and
        // k < NUM_CLASSES all stay below APP_DIM (12).
        for (k, bias) in c.channel_bias.iter().enumerate() {
            app[k] = base + bias * 0.15 + sample_normal(rng) * c.noise;
        }
        app[3] = c.brightness + sample_normal(rng) * 0.15;
        app[4] = size;
        // Reflections and shadows have apparent occlusion and motion, so
        // these dims overlap with real objects — the prototype channels
        // must carry the object/clutter separation.
        // PANIC: constant slots 5..=7 stay below APP_DIM.
        app[5] = rng.gen_range(0.0..0.25);
        app[6] = rng.gen_range(0.0..0.6);
        app[7] = 0.45 + sample_normal(rng).abs() * 0.18;
        // At night, weakly lit clutter lives in the low-light band, where
        // it is confusable with dark vehicles; by day the band stays off.
        // PANIC: slots 8 and 9 + k with k < NUM_CLASSES stay below
        // APP_DIM = 9 + NUM_CLASSES.
        let gate = dark_gate(base, c.brightness);
        app[8] = gate;
        for k in 0..NUM_CLASSES {
            app[9 + k] = gate * app[k];
        }
        app
    }
}

/// A tiny normal sampler so the crate needs no distribution dependency.
mod rand_distr_shim {
    use rand::Rng;

    /// Standard normal via Box–Muller.
    pub(crate) fn sample_normal<R: Rng>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

pub(crate) use self::rand_distr_shim::sample_normal as normal;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_rng;

    #[test]
    fn object_appearance_activates_own_channel() {
        let model = AppearanceModel::new(DomainConditions::day());
        let mut rng = derive_rng(1, 0);
        let mut mean = vec![0.0; NUM_CLASSES];
        for _ in 0..200 {
            let app = model.object_appearance(1, 0.9, 0.3, 0.0, 0.2, &mut rng);
            for k in 0..NUM_CLASSES {
                mean[k] += app[k] / 200.0;
            }
        }
        assert!(mean[1] > 0.6, "own channel should be strong: {mean:?}");
        assert!(mean[0].abs() < 0.1 && mean[2].abs() < 0.1);
    }

    #[test]
    fn night_attenuates_and_biases() {
        let day = AppearanceModel::new(DomainConditions::day());
        let night = AppearanceModel::new(DomainConditions::night());
        let mut rng = derive_rng(2, 0);
        let mut day_own = 0.0;
        let mut night_own = 0.0;
        let mut night_truck = 0.0;
        for _ in 0..300 {
            day_own += day.object_appearance(0, 0.8, 0.3, 0.0, 0.2, &mut rng)[0] / 300.0;
            let app = night.object_appearance(0, 0.8, 0.3, 0.0, 0.2, &mut rng);
            night_own += app[0] / 300.0;
            night_truck += app[1] / 300.0;
        }
        assert!(night_own < day_own, "night contrast must attenuate");
        assert!(
            night_truck > 0.15,
            "night bias should bleed into the truck channel: {night_truck}"
        );
    }

    #[test]
    fn clutter_has_high_texture_and_weak_prototypes() {
        let model = AppearanceModel::new(DomainConditions::day());
        let mut rng = derive_rng(3, 0);
        let mut texture = 0.0;
        let mut proto = 0.0;
        for _ in 0..200 {
            let app = model.clutter_appearance(0.1, &mut rng);
            texture += app[7] / 200.0;
            proto += app[0].max(app[1]).max(app[2]) / 200.0;
        }
        assert!(texture > 0.4);
        assert!(proto < 0.35);
    }

    #[test]
    fn occlusion_weakens_prototype() {
        let model = AppearanceModel::new(DomainConditions::day());
        let mut rng = derive_rng(4, 0);
        let mut clear = 0.0;
        let mut occluded = 0.0;
        for _ in 0..200 {
            clear += model.object_appearance(2, 0.9, 0.3, 0.0, 0.2, &mut rng)[2] / 200.0;
            occluded += model.object_appearance(2, 0.9, 0.3, 0.8, 0.2, &mut rng)[2] / 200.0;
        }
        assert!(occluded < clear * 0.7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn clutter_class_rejected_as_object() {
        let model = AppearanceModel::new(DomainConditions::day());
        let mut rng = derive_rng(5, 0);
        model.object_appearance(CLUTTER_CLASS, 0.9, 0.3, 0.0, 0.2, &mut rng);
    }

    #[test]
    fn signal_clutter_flag() {
        let s = ObjectSignal {
            track_id: 0,
            true_class: CLUTTER_CLASS,
            bbox: BBox2D::new(0.0, 0.0, 1.0, 1.0).unwrap(),
            appearance: vec![0.0; APP_DIM],
            quality: 0.5,
        };
        assert!(s.is_clutter());
    }

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = derive_rng(6, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| super::normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
