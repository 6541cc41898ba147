//! The ECG rhythm world: a CINC17-like stream of classified signal
//! windows.
//!
//! The paper's medical task classifies atrial fibrillation from
//! single-lead ECG (Rajpurkar et al. 2019, evaluated on the CINC17
//! dataset). The domain assertion encodes the European Society of
//! Cardiology guideline that AF "rhythms need to persist for at least 30
//! seconds" (§4.1): predictions must not oscillate `A → B → A` within a
//! 30-second span.
//!
//! This module generates a hidden-Markov rhythm process over the CINC17
//! classes — Normal, AF, Other, Noisy — emitting one feature window every
//! `stride` seconds. True rhythms dwell far longer than 30 s, so *every*
//! fast oscillation in predictions is a model error, which is why the
//! assertion achieves the paper's 100% precision (Table 3).

use rand::rngs::StdRng;
use rand::Rng;

use crate::derive_rng;
use crate::signal::normal;

/// Number of rhythm classes (CINC17: normal, AF, other, noisy).
pub const ECG_CLASSES: usize = 4;

/// Dimensionality of a window's feature vector.
pub const ECG_DIM: usize = 8;

/// Human-readable class names in index order.
pub const ECG_CLASS_NAMES: [&str; ECG_CLASSES] = ["normal", "af", "other", "noisy"];

/// Configuration of an [`EcgWorld`].
#[derive(Debug, Clone, PartialEq)]
pub struct EcgConfig {
    /// Seconds between consecutive windows.
    pub stride_secs: f64,
    /// Mean dwell time of a rhythm, in windows.
    pub mean_dwell_windows: f64,
    /// Minimum dwell time of a rhythm, in windows. The clinical premise
    /// the assertion encodes — rhythms persist at least 30 s — must hold
    /// in the ground truth, so the minimum dwell exceeds the guideline
    /// (4 windows × 10 s = 40 s > 30 s).
    pub min_dwell_windows: u32,
    /// Class-conditional feature noise (controls the Bayes error).
    pub noise: f64,
    /// AR(1) correlation of the noise across consecutive windows.
    /// Physiological artifacts (electrode contact, baseline wander)
    /// persist for tens of seconds, so classifier errors cluster in time
    /// rather than flipping window-to-window.
    pub noise_correlation: f64,
}

impl Default for EcgConfig {
    fn default() -> Self {
        Self {
            stride_secs: 10.0,
            // ~12 windows x 10 s = 2 minutes mean dwell: real rhythms
            // persist far beyond the 30 s guideline.
            mean_dwell_windows: 12.0,
            min_dwell_windows: 4,
            noise: 0.70,
            noise_correlation: 0.75,
        }
    }
}

/// One classified window of ECG signal.
#[derive(Debug, Clone, PartialEq)]
pub struct EcgPoint {
    /// Window start time in seconds.
    pub time: f64,
    /// Feature vector (length [`ECG_DIM`]): summary statistics a real
    /// pipeline would extract (RR-interval mean/variance, P-wave power,
    /// amplitude...).
    pub features: Vec<f64>,
    /// The hidden rhythm class.
    pub true_class: usize,
}

/// Class-conditional feature means. The first four dimensions are
/// class-prototype channels; the last four are correlated physiological
/// statistics (RR mean, RR variance, P-wave power, amplitude).
const CLASS_MEANS: [[f64; ECG_DIM]; ECG_CLASSES] = [
    // normal: regular RR, strong P wave
    [1.0, 0.0, 0.0, 0.0, 0.8, 0.1, 0.9, 0.7],
    // AF: irregular RR, absent P wave
    [0.0, 1.0, 0.0, 0.0, 0.6, 0.9, 0.05, 0.6],
    // other arrhythmia: slow, odd morphology
    [0.0, 0.0, 1.0, 0.0, 1.1, 0.5, 0.5, 0.5],
    // noisy: everything washed out
    [0.0, 0.0, 0.0, 1.0, 0.7, 0.6, 0.4, 0.2],
];

/// A continuous stream of ECG windows from a hidden-Markov rhythm
/// process.
#[derive(Debug, Clone)]
pub struct EcgWorld {
    config: EcgConfig,
    rng: StdRng,
    state: usize,
    window_idx: u64,
    /// Windows remaining before the rhythm may switch again.
    dwell_remaining: u32,
    /// AR(1) noise state per feature dimension.
    noise_state: [f64; ECG_DIM],
}

impl EcgWorld {
    /// Creates a world; the stream is deterministic given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the stride or dwell time is non-positive.
    pub fn new(config: EcgConfig, seed: u64) -> Self {
        assert!(config.stride_secs > 0.0, "stride must be positive");
        assert!(
            config.mean_dwell_windows > 1.0,
            "dwell must exceed one window"
        );
        assert!(
            (0.0..1.0).contains(&config.noise_correlation),
            "noise correlation must be in [0, 1)"
        );
        let mut rng = derive_rng(seed, 0xEC6);
        let state = rng.gen_range(0..ECG_CLASSES);
        let min_dwell = config.min_dwell_windows;
        Self {
            config,
            rng,
            state,
            window_idx: 0,
            dwell_remaining: min_dwell,
            noise_state: [0.0; ECG_DIM],
        }
    }

    /// The world's configuration.
    pub fn config(&self) -> &EcgConfig {
        &self.config
    }

    /// Generates the next window.
    fn next_window(&mut self) -> EcgPoint {
        // Sticky Markov chain with a minimum dwell: switch with
        // probability 1/(mean - min) once the minimum has elapsed.
        self.dwell_remaining = self.dwell_remaining.saturating_sub(1);
        let residual_mean =
            (self.config.mean_dwell_windows - self.config.min_dwell_windows as f64).max(1.0);
        if self.dwell_remaining == 0 && self.rng.gen::<f64>() < 1.0 / residual_mean {
            // Class marginals roughly follow CINC17: normal dominates.
            let target = match self.rng.gen_range(0.0..1.0) {
                p if p < 0.55 => 0,
                p if p < 0.75 => 1,
                p if p < 0.92 => 2,
                _ => 3,
            };
            if target != self.state {
                self.state = target;
                self.dwell_remaining = self.config.min_dwell_windows;
            }
        }
        let mut features = Vec::with_capacity(ECG_DIM);
        // The noisy class is intrinsically harder: extra feature noise.
        let noise = self.config.noise * if self.state == 3 { 1.5 } else { 1.0 };
        let rho = self.config.noise_correlation;
        // PANIC: state transitions stay in 0..CLASS_MEANS.len().
        for (ns, mean) in self.noise_state.iter_mut().zip(&CLASS_MEANS[self.state]) {
            // AR(1): persistent artifacts rather than white noise.
            *ns = rho * *ns + (1.0 - rho * rho).sqrt() * normal(&mut self.rng);
            features.push(mean + *ns * noise);
        }
        let point = EcgPoint {
            time: self.window_idx as f64 * self.config.stride_secs,
            features,
            true_class: self.state,
        };
        self.window_idx += 1;
        point
    }

    /// Generates the next `n` windows.
    pub fn windows(&mut self, n: usize) -> Vec<EcgPoint> {
        (0..n).map(|_| self.next_window()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let a = EcgWorld::new(EcgConfig::default(), 5).windows(100);
        let b = EcgWorld::new(EcgConfig::default(), 5).windows(100);
        assert_eq!(a, b);
        let c = EcgWorld::new(EcgConfig::default(), 6).windows(100);
        assert_ne!(a, c);
    }

    #[test]
    fn times_advance_by_stride() {
        let pts = EcgWorld::new(EcgConfig::default(), 1).windows(5);
        for (i, p) in pts.iter().enumerate() {
            assert!((p.time - i as f64 * 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn all_classes_eventually_appear() {
        let pts = EcgWorld::new(EcgConfig::default(), 2).windows(3000);
        for c in 0..ECG_CLASSES {
            assert!(
                pts.iter().any(|p| p.true_class == c),
                "class {c} never appeared"
            );
        }
    }

    #[test]
    fn normal_rhythm_dominates() {
        let pts = EcgWorld::new(EcgConfig::default(), 3).windows(5000);
        let normal_frac = pts.iter().filter(|p| p.true_class == 0).count() as f64 / 5000.0;
        assert!(
            normal_frac > 0.35,
            "normal rhythm should dominate: {normal_frac}"
        );
    }

    #[test]
    fn rhythms_dwell_beyond_the_guideline() {
        // Mean dwell must comfortably exceed 30 s so true transitions are
        // never flagged by the 30 s assertion.
        let pts = EcgWorld::new(EcgConfig::default(), 4).windows(5000);
        let mut dwells = Vec::new();
        let mut run = 1usize;
        for w in pts.windows(2) {
            if w[1].true_class == w[0].true_class {
                run += 1;
            } else {
                dwells.push(run);
                run = 1;
            }
        }
        let mean_dwell_secs = dwells.iter().sum::<usize>() as f64 / dwells.len() as f64 * 10.0;
        assert!(
            mean_dwell_secs > 60.0,
            "mean dwell {mean_dwell_secs}s too short"
        );
    }

    #[test]
    fn features_separate_classes_imperfectly() {
        // Prototype channel should be informative but noisy (the model
        // will make errors, as the paper's does).
        let pts = EcgWorld::new(EcgConfig::default(), 7).windows(2000);
        let mut hits = 0usize;
        for p in &pts {
            let argmax = (0..ECG_CLASSES)
                .max_by(|&a, &b| p.features[a].partial_cmp(&p.features[b]).unwrap())
                .unwrap();
            hits += usize::from(argmax == p.true_class);
        }
        let naive_acc = hits as f64 / pts.len() as f64;
        assert!(naive_acc > 0.5, "features too noisy: {naive_acc}");
        assert!(naive_acc < 0.95, "features too clean: {naive_acc}");
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn bad_stride_rejected() {
        EcgWorld::new(
            EcgConfig {
                stride_secs: 0.0,
                ..EcgConfig::default()
            },
            1,
        );
    }
}
