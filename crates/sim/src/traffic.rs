//! The `night-street` traffic-scene simulator.
//!
//! Replaces the paper's `jackson` night-street video: a fixed camera over
//! a multi-lane road, vehicles entering and leaving with constant
//! velocities, occlusion between lanes, and night-time appearance
//! conditions. Every frame carries ground-truth boxes and the
//! [`ObjectSignal`]s the trainable detector consumes.

use omg_eval::GtBox;
use omg_geom::BBox2D;
use rand::rngs::StdRng;
use rand::Rng;

use crate::signal::CLUTTER_CLASS;
use crate::{derive_rng, AppearanceModel, DomainConditions, ObjectSignal};

/// Configuration of a [`TrafficWorld`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Frames per second of the simulated video.
    pub fps: f64,
    /// Image width in pixels.
    pub width: f64,
    /// Image height in pixels.
    pub height: f64,
    /// Number of lanes.
    pub lanes: usize,
    /// Per-frame probability that a new vehicle enters a lane.
    pub spawn_prob: f64,
    /// Number of persistent clutter patches (reflections, signage).
    pub clutter_patches: usize,
    /// Appearance conditions (day for pretraining-like scenes, night for
    /// deployment).
    pub conditions: DomainConditions,
}

impl TrafficConfig {
    /// The deployment configuration used by the experiments: a 10 fps
    /// night stream (the paper's video is 30 fps; 10 fps preserves every
    /// error mechanism at a third of the compute).
    pub fn night_street() -> Self {
        Self {
            fps: 10.0,
            width: 1280.0,
            height: 720.0,
            lanes: 4,
            spawn_prob: 0.02,
            clutter_patches: 6,
            conditions: DomainConditions::night(),
        }
    }

    /// A daytime variant of the same street.
    pub fn day_street() -> Self {
        Self {
            conditions: DomainConditions::day(),
            ..Self::night_street()
        }
    }
}

/// One vehicle in flight.
#[derive(Debug, Clone, PartialEq)]
struct Car {
    track_id: u64,
    class: usize,
    lane: usize,
    /// Box-center x in pixels.
    x: f64,
    /// Pixels per frame; sign encodes direction.
    speed: f64,
    width: f64,
    height: f64,
    /// Intrinsic visual quality (paint darkness, dirt, lighting).
    quality: f64,
}

/// One frame of ground truth plus the detector-facing signals.
#[derive(Debug, Clone, PartialEq)]
pub struct GtFrame {
    /// Frame index from the start of the stream.
    pub index: u64,
    /// Timestamp in seconds.
    pub time: f64,
    /// Signals for everything in the frame: real objects first, then
    /// clutter patches. This is what [`SimDetector::detect_frame`]
    /// consumes.
    ///
    /// [`SimDetector::detect_frame`]: crate::detector::SimDetector::detect_frame
    pub signals: Vec<ObjectSignal>,
}

impl GtFrame {
    /// Ground-truth boxes of the real objects (excludes clutter) in the
    /// evaluation format.
    pub fn gt_boxes(&self) -> Vec<GtBox> {
        self.signals
            .iter()
            .filter(|s| !s.is_clutter())
            .map(|s| GtBox {
                bbox: s.bbox,
                class: s.true_class,
            })
            .collect()
    }

    /// The signal for a given track id, if present in this frame.
    pub fn signal_for_track(&self, track_id: u64) -> Option<&ObjectSignal> {
        self.signals.iter().find(|s| s.track_id == track_id)
    }
}

/// The evolving traffic world. Call [`TrafficWorld::step`] once per frame.
#[derive(Debug, Clone)]
pub struct TrafficWorld {
    config: TrafficConfig,
    appearance: AppearanceModel,
    rng: StdRng,
    cars: Vec<Car>,
    next_track: u64,
    frame: u64,
    clutter: Vec<(u64, BBox2D, f64)>,
}

impl TrafficWorld {
    /// Creates a world; all randomness derives from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the config has no lanes or a non-positive frame rate.
    pub fn new(config: TrafficConfig, seed: u64) -> Self {
        assert!(config.lanes > 0, "need at least one lane");
        assert!(config.fps > 0.0, "frame rate must be positive");
        let mut rng = derive_rng(seed, 0x7EA);
        let appearance = AppearanceModel::new(config.conditions.clone());
        // Persistent clutter patches at fixed locations.
        let clutter = (0..config.clutter_patches)
            .map(|i| {
                let w = rng.gen_range(20.0..70.0);
                let h = rng.gen_range(15.0..50.0);
                let x = rng.gen_range(0.0..config.width - w);
                let y = rng.gen_range(0.0..config.height - h);
                (
                    u64::MAX - i as u64, // clutter ids from the top
                    // PANIC: w, h > 0 by the sampled ranges above.
                    BBox2D::new(x, y, x + w, y + h).expect("valid clutter box"),
                    rng.gen_range(0.3..0.7),
                )
            })
            .collect();
        Self {
            config,
            appearance,
            rng,
            cars: Vec::new(),
            next_track: 0,
            frame: 0,
            clutter,
        }
    }

    /// The world's configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    fn lane_y(&self, lane: usize) -> f64 {
        let band = self.config.height * 0.5;
        let top = self.config.height * 0.35;
        top + band * (lane as f64 + 0.5) / self.config.lanes as f64
    }

    fn spawn(&mut self) {
        for lane in 0..self.config.lanes {
            if !self.rng.gen_bool(self.config.spawn_prob) {
                continue;
            }
            // Even lanes flow left-to-right, odd lanes right-to-left.
            let dir = if lane % 2 == 0 { 1.0 } else { -1.0 };
            let class = match self.rng.gen_range(0.0..1.0) {
                p if p < 0.70 => 0, // car
                p if p < 0.90 => 1, // truck
                _ => 2,             // bus
            };
            let (w, h) = match class {
                0 => (
                    self.rng.gen_range(70.0..110.0),
                    self.rng.gen_range(45.0..65.0),
                ),
                1 => (
                    self.rng.gen_range(110.0..170.0),
                    self.rng.gen_range(60.0..90.0),
                ),
                _ => (
                    self.rng.gen_range(180.0..260.0),
                    self.rng.gen_range(70.0..100.0),
                ),
            };
            let speed = dir * self.rng.gen_range(4.0..12.0) * 30.0 / self.config.fps.max(1.0);
            let x = if dir > 0.0 {
                -w / 2.0
            } else {
                self.config.width + w / 2.0
            };
            // Avoid spawning into a vehicle already at the lane entrance.
            let entrance_clear = self
                .cars
                .iter()
                .all(|c| c.lane != lane || (c.x - x).abs() > (c.width + w) * 0.75);
            if !entrance_clear {
                continue;
            }
            // Bimodal visual quality: most vehicles are well-lit even at
            // night; a small fraction (dark paint, broken street light)
            // are genuinely hard. Systematic errors concentrate on this
            // rare subpopulation — the paper's premise that flagged data
            // is rare and informative.
            let quality = if self.rng.gen_bool(0.12) {
                self.rng.gen_range(0.22..0.40)
            } else {
                self.rng.gen_range(0.72..1.0)
            };
            self.cars.push(Car {
                track_id: self.next_track,
                class,
                lane,
                x,
                speed,
                width: w,
                height: h,
                quality,
            });
            self.next_track += 1;
        }
    }

    fn car_bbox(&self, car: &Car) -> BBox2D {
        let y = self.lane_y(car.lane);
        BBox2D::from_center(car.x, y, car.width, car.height).expect("valid car box")
    }

    /// Advances one frame and returns its ground truth and signals.
    pub fn step(&mut self) -> GtFrame {
        self.spawn();
        for car in &mut self.cars {
            car.x += car.speed;
        }
        let width = self.config.width;
        let cars_snapshot = self.cars.clone();
        self.cars
            .retain(|c| c.x + c.width / 2.0 > -5.0 && c.x - c.width / 2.0 < width + 5.0);

        let mut signals = Vec::new();
        for car in &self.cars {
            let bbox = self.car_bbox(car);
            // Occlusion: fraction covered by vehicles in lanes closer to
            // the camera (higher lane index).
            let mut occlusion: f64 = 0.0;
            for other in &cars_snapshot {
                if other.lane > car.lane && other.track_id != car.track_id {
                    let ob = self.car_bbox(other);
                    occlusion = occlusion.max(bbox.overlap_fraction(&ob));
                }
            }
            let size =
                ((bbox.area() / (self.config.width * self.config.height)).sqrt()).clamp(0.0, 1.0);
            let speed_norm = (car.speed.abs() / 15.0).clamp(0.0, 1.0);
            let mut sig_rng = derive_rng(self.frame.wrapping_mul(0x9E37_79B9), car.track_id);
            let appearance = self.appearance.object_appearance(
                car.class,
                car.quality,
                size,
                occlusion.min(0.95),
                speed_norm,
                &mut sig_rng,
            );
            signals.push(ObjectSignal {
                track_id: car.track_id,
                true_class: car.class,
                bbox,
                appearance,
                quality: car.quality * (1.0 - 0.5 * occlusion),
            });
        }
        for (id, bbox, base_q) in &self.clutter {
            let mut sig_rng = derive_rng(self.frame.wrapping_mul(0x9E37_79B9), *id);
            let size =
                ((bbox.area() / (self.config.width * self.config.height)).sqrt()).clamp(0.0, 1.0);
            let appearance = self.appearance.clutter_appearance(size, &mut sig_rng);
            signals.push(ObjectSignal {
                track_id: *id,
                true_class: CLUTTER_CLASS,
                bbox: *bbox,
                appearance,
                quality: *base_q,
            });
        }

        let frame = GtFrame {
            index: self.frame,
            time: self.frame as f64 / self.config.fps,
            signals,
        };
        self.frame += 1;
        frame
    }

    /// Generates the next `n` frames.
    pub fn steps(&mut self, n: usize) -> Vec<GtFrame> {
        (0..n).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NUM_CLASSES;

    fn world(seed: u64) -> TrafficWorld {
        TrafficWorld::new(TrafficConfig::night_street(), seed)
    }

    #[test]
    fn frames_are_sequential_and_timed() {
        let mut w = world(1);
        let frames = w.steps(5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i as u64);
            assert!((f.time - i as f64 / 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn world_is_deterministic_per_seed() {
        let a = world(7).steps(50);
        let b = world(7).steps(50);
        assert_eq!(a, b);
        let c = world(8).steps(50);
        assert_ne!(a, c);
    }

    #[test]
    fn vehicles_eventually_appear_and_move() {
        let mut w = world(2);
        let frames = w.steps(300);
        let total_objects: usize = frames
            .iter()
            .map(|f| f.signals.iter().filter(|s| !s.is_clutter()).count())
            .sum();
        assert!(total_objects > 50, "traffic too sparse: {total_objects}");
        // Find a track seen in multiple frames and check it moved.
        let mut seen: std::collections::HashMap<u64, Vec<f64>> = Default::default();
        for f in &frames {
            for s in &f.signals {
                if !s.is_clutter() {
                    seen.entry(s.track_id).or_default().push(s.bbox.center().0);
                }
            }
        }
        let long_track = seen
            .values()
            .find(|xs| xs.len() > 10)
            .expect("a long track");
        let dx = long_track.last().unwrap() - long_track.first().unwrap();
        assert!(dx.abs() > 50.0, "vehicle should traverse: {dx}");
    }

    #[test]
    fn tracks_are_contiguous_in_ground_truth() {
        // GT tracks never flicker — only the detector flickers.
        let mut w = world(3);
        let frames = w.steps(200);
        let mut first_last: std::collections::HashMap<u64, (u64, u64, u64)> = Default::default();
        for f in &frames {
            for s in &f.signals {
                if s.is_clutter() {
                    continue;
                }
                let e = first_last
                    .entry(s.track_id)
                    .or_insert((f.index, f.index, 0));
                e.1 = f.index;
                e.2 += 1;
            }
        }
        for (track, (first, last, count)) in first_last {
            assert_eq!(last - first + 1, count, "gt track {track} has gaps");
        }
    }

    #[test]
    fn clutter_patches_are_persistent() {
        let mut w = world(4);
        let frames = w.steps(10);
        for f in &frames {
            let clutter = f.signals.iter().filter(|s| s.is_clutter()).count();
            assert_eq!(clutter, 6);
        }
    }

    #[test]
    fn gt_boxes_exclude_clutter() {
        let mut w = world(5);
        let frames = w.steps(100);
        for f in &frames {
            assert_eq!(
                f.gt_boxes().len(),
                f.signals.iter().filter(|s| !s.is_clutter()).count()
            );
            for g in f.gt_boxes() {
                assert!(g.class < NUM_CLASSES);
            }
        }
    }

    #[test]
    fn boxes_lie_mostly_within_frame() {
        let mut w = world(6);
        for f in w.steps(200) {
            for s in f.signals.iter().filter(|s| !s.is_clutter()) {
                let (cx, cy) = s.bbox.center();
                assert!(cy > 0.0 && cy < 720.0, "cy {cy}");
                assert!(cx > -200.0 && cx < 1480.0, "cx {cx}");
            }
        }
    }

    #[test]
    fn signal_for_track_lookup() {
        let mut w = world(7);
        let frames = w.steps(200);
        let f = frames
            .iter()
            .find(|f| f.signals.iter().any(|s| !s.is_clutter()))
            .expect("some traffic");
        let s = f.signals.iter().find(|s| !s.is_clutter()).unwrap();
        assert_eq!(f.signal_for_track(s.track_id).unwrap().track_id, s.track_id);
        assert!(f.signal_for_track(123_456_789).is_none());
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn zero_lanes_rejected() {
        let cfg = TrafficConfig {
            lanes: 0,
            ..TrafficConfig::night_street()
        };
        TrafficWorld::new(cfg, 1);
    }
}
