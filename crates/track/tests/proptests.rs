//! Property-based tests for the associator.

use omg_geom::BBox2D;
use omg_track::IouAssociator;
use proptest::prelude::*;

fn bx(x: f64, y: f64) -> BBox2D {
    BBox2D::new(x, y, x + 10.0, y + 10.0).unwrap()
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
}
