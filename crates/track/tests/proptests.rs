//! Property-based tests for the associator.

use omg_geom::BBox2D;
use omg_track::IouAssociator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bx(x: f64, y: f64) -> BBox2D {
    BBox2D::new(x, y, x + 10.0, y + 10.0).unwrap()
}

/// A frame sequence from `(advance, kind, seed)` steps, starting at
/// frame 0: each step moves the frame number on by `advance` (0 repeats
/// a frame) and holds no box (kind 0), a street frame's 1–11 boxes
/// (kind 1) or a crowded frame's 128–199 (kind 2), at seeded positions
/// on a 300-pixel square.
fn frame_sequence(steps: &[(usize, u8, u64)]) -> Vec<(usize, Vec<BBox2D>)> {
    let mut frame = 0;
    steps
        .iter()
        .map(|&(advance, kind, seed)| {
            frame += advance;
            let mut rng = StdRng::seed_from_u64(seed);
            let n = match kind {
                0 => 0,
                1 => rng.gen_range(1..12usize),
                _ => rng.gen_range(128..200usize),
            };
            let boxes = (0..n)
                .map(|_| bx(rng.gen_range(0.0..300.0), rng.gen_range(0.0..300.0)))
                .collect();
            (frame, boxes)
        })
        .collect()
}

proptest! {
    /// Two objects that stay far apart must never share a track id,
    /// regardless of their motion.
    #[test]
    fn far_apart_objects_never_merge(
        vx1 in -1.0f64..1.0, vx2 in -1.0f64..1.0, frames in 2usize..30,
    ) {
        let mut tr = IouAssociator::new(0.2, 2);
        let mut ids_a = Vec::new();
        let mut ids_b = Vec::new();
        for f in 0..frames {
            let a = bx(f as f64 * vx1, 0.0);
            let b = bx(500.0 + f as f64 * vx2, 0.0);
            let ids = tr.assign(f, [a, b]);
            ids_a.push(ids[0]);
            ids_b.push(ids[1]);
        }
        for (&a, &b) in ids_a.iter().zip(&ids_b) {
            prop_assert_ne!(a, b);
        }
        // And each object keeps a consistent id (slow motion, big overlap).
        prop_assert!(ids_a.iter().all(|&i| i == ids_a[0]));
        prop_assert!(ids_b.iter().all(|&i| i == ids_b[0]));
    }

    /// Every box fed to the associator is assigned to exactly one track,
    /// and the number of tracks never exceeds the number of boxes.
    #[test]
    fn assignment_is_total(
        boxes_per_frame in proptest::collection::vec(0usize..4, 1..15),
    ) {
        let mut tr = IouAssociator::new(0.3, 1);
        let mut total_boxes = 0usize;
        for (f, &n) in boxes_per_frame.iter().enumerate() {
            let ids = tr.assign(f, (0..n).map(|i| bx(i as f64 * 100.0, 0.0)));
            prop_assert_eq!(ids.len(), n);
            total_boxes += n;
        }
        prop_assert!(tr.num_tracks() <= total_boxes.max(1));
    }

    /// After `reset`, an associator issues exactly the ids a new one
    /// does, whatever it ran before: a street frame, a split step
    /// between two crowded frames, a crowded frame after a gap that
    /// retired the previous call's tracks, then drawn frames.
    #[test]
    fn reset_issues_the_ids_of_a_new_associator(
        earlier in proptest::collection::vec((0usize..6, 0u8..3, any::<u64>()), 0..5),
        later in proptest::collection::vec((0usize..6, 0u8..3, any::<u64>()), 1..8),
        max_age in 0usize..4,
    ) {
        let mut steps = vec![(0, 1, 1), (1, 2, 2), (1, 2, 3), (max_age + 2, 2, 4)];
        steps.extend(earlier);
        let mut reused = IouAssociator::new(0.3, max_age);
        for (frame, boxes) in frame_sequence(&steps) {
            reused.assign(frame, boxes);
        }
        reused.reset();
        prop_assert_eq!(reused.num_tracks(), 0);
        let mut fresh = IouAssociator::new(0.3, max_age);
        for (frame, boxes) in frame_sequence(&later) {
            let want = fresh.assign(frame, boxes.iter().copied()).to_vec();
            prop_assert_eq!(reused.assign(frame, boxes).to_vec(), want);
        }
        prop_assert_eq!(reused.num_tracks(), fresh.num_tracks());
    }
}
