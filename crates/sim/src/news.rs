//! The TV-news world: scene cuts, hosts, and face-pipeline outputs.
//!
//! The paper's TV-news lab runs face detection every three seconds over a
//! decade of footage, then identifies the face, classifies gender, and
//! classifies hair color (§2.2). Because "most TV news hosts do not move
//! much between scenes", identity/gender/hair-color outputs that highly
//! overlap within one scene should be consistent — the flagship use of the
//! consistency API (§4).
//!
//! This module generates scenes with hosts from a roster and emits
//! [`NewsFace`] pipeline outputs with *transient* classifier errors
//! (identity swaps, gender flips, hair-color flips) at configurable rates.
//! Transient errors disagree with the rest of their scene, which is
//! exactly what the generated consistency assertions catch.

use rand::rngs::StdRng;
use rand::Rng;

use crate::derive_rng;

/// A roster member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Unique identity index in the roster.
    pub identity: u32,
    /// Gender label (0/1) the gender classifier should output.
    pub gender: u8,
    /// Hair-color label in `0..NUM_HAIR_COLORS`.
    pub hair: u8,
}

/// Number of distinct hair-color classes.
const NUM_HAIR_COLORS: u8 = 4;

/// One face-pipeline output: the model's identity/gender/hair predictions
/// for a face box in one sampled frame.
#[derive(Debug, Clone, PartialEq)]
pub struct NewsFace {
    /// Scene index the frame belongs to.
    pub scene: u64,
    /// On-screen slot within the scene (a host's fixed position).
    pub slot: usize,
    /// Sample time in seconds.
    pub time: f64,
    /// Predicted identity (roster index).
    pub identity: u32,
    /// Predicted gender.
    pub gender: u8,
    /// Predicted hair color.
    pub hair: u8,
    /// Ground truth: the roster identity actually on screen
    /// (simulator-side only).
    pub true_identity: u32,
}

impl NewsFace {
    /// Whether any of the three model outputs is wrong, judged against
    /// the roster.
    pub fn is_error(&self, roster: &[Host]) -> bool {
        let truth = &roster[self.true_identity as usize];
        self.identity != self.true_identity
            || self.gender != truth.gender
            || self.hair != truth.hair
    }
}

/// Configuration of a [`NewsWorld`].
#[derive(Debug, Clone, PartialEq)]
pub struct NewsConfig {
    /// Number of hosts in the roster.
    pub roster_size: usize,
    /// Seconds between face-pipeline samples (the lab samples every 3 s).
    pub sample_period: f64,
    /// Scene duration range in seconds.
    pub scene_secs: (f64, f64),
    /// Per-sample probability of a transient identity swap.
    pub identity_error_rate: f64,
    /// Per-sample probability of a transient gender flip.
    pub gender_error_rate: f64,
    /// Per-sample probability of a transient hair-color flip.
    pub hair_error_rate: f64,
}

impl Default for NewsConfig {
    fn default() -> Self {
        Self {
            roster_size: 12,
            sample_period: 3.0,
            scene_secs: (6.0, 30.0),
            identity_error_rate: 0.02,
            gender_error_rate: 0.015,
            hair_error_rate: 0.025,
        }
    }
}

/// One scene's worth of pipeline outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct NewsScene {
    /// Scene index.
    pub scene: u64,
    /// Start time of the scene in seconds (global clock).
    pub start_time: f64,
    /// All face outputs in the scene, in time order.
    pub faces: Vec<NewsFace>,
}

/// Generates news footage deterministically by scene index.
#[derive(Debug, Clone)]
pub struct NewsWorld {
    config: NewsConfig,
    roster: Vec<Host>,
    seed: u64,
}

impl NewsWorld {
    /// Creates a world with a randomly drawn roster.
    ///
    /// # Panics
    ///
    /// Panics if the roster would be empty or the sample period is
    /// non-positive.
    pub fn new(config: NewsConfig, seed: u64) -> Self {
        assert!(config.roster_size >= 2, "need at least two hosts");
        assert!(config.sample_period > 0.0, "sample period must be positive");
        let mut rng = derive_rng(seed, 0x4E05);
        let roster = (0..config.roster_size)
            .map(|i| Host {
                identity: i as u32,
                gender: rng.gen_range(0..2),
                hair: rng.gen_range(0..NUM_HAIR_COLORS),
            })
            .collect();
        Self {
            config,
            roster,
            seed,
        }
    }

    /// The roster of hosts.
    pub fn roster(&self) -> &[Host] {
        &self.roster
    }

    /// The world's configuration.
    pub fn config(&self) -> &NewsConfig {
        &self.config
    }

    /// Generates one scene.
    pub fn scene(&self, scene_idx: u64) -> NewsScene {
        let mut rng: StdRng = derive_rng(self.seed, scene_idx.wrapping_mul(3) + 11);
        let duration = rng.gen_range(self.config.scene_secs.0..self.config.scene_secs.1);
        let n_samples = (duration / self.config.sample_period).floor().max(1.0) as usize;
        let n_hosts = rng.gen_range(1..=2.min(self.roster.len()));
        let mut host_indices = Vec::new();
        while host_indices.len() < n_hosts {
            let h = rng.gen_range(0..self.roster.len());
            if !host_indices.contains(&h) {
                host_indices.push(h);
            }
        }
        let start_time = scene_idx as f64 * (self.config.scene_secs.1 + 1.0);
        let mut faces = Vec::new();
        for s in 0..n_samples {
            let time = start_time + s as f64 * self.config.sample_period;
            for (slot, &h) in host_indices.iter().enumerate() {
                // PANIC: host indices are sampled from 0..roster.len().
                let truth = &self.roster[h];
                // Transient errors, independent per sample.
                let identity = if rng.gen::<f64>() < self.config.identity_error_rate {
                    // Swap to a different roster member.
                    let mut other = rng.gen_range(0..self.roster.len() as u32);
                    if other == truth.identity {
                        other = (other + 1) % self.roster.len() as u32;
                    }
                    other
                } else {
                    truth.identity
                };
                // Gender/hair classifiers run on the face crop: they
                // mostly echo the *true* host's appearance, with their own
                // transient errors.
                let gender = if rng.gen::<f64>() < self.config.gender_error_rate {
                    1 - truth.gender
                } else {
                    truth.gender
                };
                let hair = if rng.gen::<f64>() < self.config.hair_error_rate {
                    (truth.hair + rng.gen_range(1..NUM_HAIR_COLORS)) % NUM_HAIR_COLORS
                } else {
                    truth.hair
                };
                faces.push(NewsFace {
                    scene: scene_idx,
                    slot,
                    time,
                    identity,
                    gender,
                    hair,
                    true_identity: truth.identity,
                });
            }
        }
        NewsScene {
            scene: scene_idx,
            start_time,
            faces,
        }
    }

    /// Generates a contiguous range of scenes.
    pub fn scenes(&self, range: std::ops::Range<u64>) -> Vec<NewsScene> {
        range.map(|i| self.scene(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> NewsWorld {
        NewsWorld::new(NewsConfig::default(), 21)
    }

    #[test]
    fn roster_is_valid() {
        let w = world();
        assert_eq!(w.roster().len(), 12);
        for (i, h) in w.roster().iter().enumerate() {
            assert_eq!(h.identity, i as u32);
            assert!(h.gender < 2);
            assert!(h.hair < NUM_HAIR_COLORS);
        }
    }

    #[test]
    fn scenes_are_deterministic() {
        let w = world();
        assert_eq!(w.scene(3), w.scene(3));
        assert_ne!(w.scene(3), w.scene(4));
    }

    #[test]
    fn faces_cover_every_sample_and_slot() {
        let w = world();
        let scene = w.scene(0);
        assert!(!scene.faces.is_empty());
        let slots: std::collections::HashSet<usize> = scene.faces.iter().map(|f| f.slot).collect();
        // Each slot appears the same number of times.
        for &slot in &slots {
            let count = scene.faces.iter().filter(|f| f.slot == slot).count();
            assert_eq!(count, scene.faces.len() / slots.len());
        }
    }

    #[test]
    fn error_rates_are_near_configured() {
        let w = world();
        let mut errors = 0usize;
        let mut total = 0usize;
        for s in w.scenes(0..300) {
            for f in &s.faces {
                total += 1;
                errors += usize::from(f.is_error(w.roster()));
            }
        }
        let rate = errors as f64 / total as f64;
        // Union of ~2% + 1.5% + 2.5% transient errors ≈ 6%.
        assert!(
            (0.02..0.12).contains(&rate),
            "error rate {rate} outside expected band"
        );
    }

    #[test]
    fn most_faces_in_a_scene_agree() {
        // The majority value per (scene, slot) equals the truth almost
        // always — required for the majority-vote correction to be valid.
        let w = world();
        for s in w.scenes(0..100) {
            let slots: std::collections::HashSet<usize> = s.faces.iter().map(|f| f.slot).collect();
            for slot in slots {
                let ids: Vec<u32> = s
                    .faces
                    .iter()
                    .filter(|f| f.slot == slot)
                    .map(|f| f.identity)
                    .collect();
                if ids.len() < 3 {
                    continue;
                }
                let truth = s
                    .faces
                    .iter()
                    .find(|f| f.slot == slot)
                    .unwrap()
                    .true_identity;
                let majority_count = ids.iter().filter(|&&i| i == truth).count();
                assert!(
                    majority_count * 2 > ids.len(),
                    "truth should be the majority in scene {} slot {slot}",
                    s.scene
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "two hosts")]
    fn tiny_roster_rejected() {
        NewsWorld::new(
            NewsConfig {
                roster_size: 1,
                ..NewsConfig::default()
            },
            1,
        );
    }
}
