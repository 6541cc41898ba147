//! Property-based tests for the geometry substrate.

use omg_geom::{BBox2D, BBox3D, CameraIntrinsics, CameraModel, Vec3};
use proptest::prelude::*;

fn arb_box() -> impl Strategy<Value = BBox2D> {
    (
        -500.0f64..500.0,
        -500.0f64..500.0,
        0.01f64..300.0,
        0.01f64..300.0,
    )
        .prop_map(|(x, y, w, h)| BBox2D::new(x, y, x + w, y + h).unwrap())
}

fn arb_box3d() -> impl Strategy<Value = BBox3D> {
    (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.1f64..10.0,
        0.1f64..10.0,
        0.1f64..5.0,
        -3.2f64..3.2,
    )
        .prop_map(|(x, y, l, w, h, yaw)| {
            BBox3D::new(Vec3::new(x, y, h / 2.0), Vec3::new(l, w, h), yaw).unwrap()
        })
}

proptest! {
    #[test]
    fn iou_is_bounded(a in arb_box(), b in arb_box()) {
        let v = a.iou(&b);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn iou_is_symmetric(a in arb_box(), b in arb_box()) {
        prop_assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-12);
    }

    #[test]
    fn iou_with_self_is_one(a in arb_box()) {
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_area_never_exceeds_either_area(a in arb_box(), b in arb_box()) {
        let inter = a.intersection_area(&b);
        prop_assert!(inter <= a.area() + 1e-9);
        prop_assert!(inter <= b.area() + 1e-9);
        prop_assert!(inter >= 0.0);
    }

    #[test]
    fn union_bounds_contains_both(a in arb_box(), b in arb_box()) {
        let u = a.union_bounds(&b);
        prop_assert!(u.contains_box(&a));
        prop_assert!(u.contains_box(&b));
    }

    #[test]
    fn translation_preserves_iou(a in arb_box(), b in arb_box(),
                                 dx in -50.0f64..50.0, dy in -50.0f64..50.0) {
        let before = a.iou(&b);
        let after = a.translated(dx, dy).iou(&b.translated(dx, dy));
        prop_assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn lerp_stays_between_endpoints(a in arb_box(), b in arb_box(), t in 0.0f64..1.0) {
        let m = a.lerp(&b, t);
        let hull = a.union_bounds(&b);
        prop_assert!(hull.contains_box(&m));
    }

    #[test]
    fn overlap_fraction_bounded(a in arb_box(), b in arb_box()) {
        let f = a.overlap_fraction(&b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
    }

    #[test]
    fn bev_iou_bounded_and_symmetric(a in arb_box3d(), b in arb_box3d()) {
        let ab = a.iou_bev_aabb(&b);
        let ba = b.iou_bev_aabb(&a);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn bev_iou_equals_footprint_aabb_iou(a in arb_box3d(), b in arb_box3d()) {
        // iou_bev_aabb is by definition the IoU of the two corner-derived
        // footprint AABBs, so its fast reject must never disagree with
        // the footprint math at any yaw (a radius-based reject once
        // zeroed yawed near-overlaps here).
        let expected = a.footprint_aabb().iou(&b.footprint_aabb());
        prop_assert!((a.iou_bev_aabb(&b) - expected).abs() < 1e-12);
    }

    #[test]
    fn box3d_corners_preserve_volume_extent(b in arb_box3d()) {
        // The diagonal of the corner cloud must equal the box diagonal.
        let cs = b.corners();
        let mut max_d: f64 = 0.0;
        for i in 0..8 {
            for j in (i + 1)..8 {
                max_d = max_d.max(cs[i].distance(&cs[j]));
            }
        }
        let s = b.size();
        let diag = (s.x * s.x + s.y * s.y + s.z * s.z).sqrt();
        prop_assert!((max_d - diag).abs() < 1e-9);
    }

    #[test]
    fn projection_u_monotone_in_lateral_offset(yoff in -20.0f64..20.0) {
        // Moving a point left (+Y) always moves its pixel left (smaller u).
        let cam = CameraModel::new(
            CameraIntrinsics::centered(1000.0, 1920.0, 1080.0).unwrap(),
            Vec3::new(0.0, 0.0, 1.5),
            0.0,
        );
        let (u0, _) = cam.project_point(Vec3::new(30.0, yoff, 1.5)).unwrap();
        let (u1, _) = cam.project_point(Vec3::new(30.0, yoff + 1.0, 1.5)).unwrap();
        prop_assert!(u1 < u0);
    }
}
