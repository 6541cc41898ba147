use crate::{BBox2D, GeomError, Vec3};

/// An oriented 3D bounding box: center, size, and yaw about the up (Z) axis.
///
/// This is the box parameterization used by LIDAR object detectors such as
/// Second/PointPillars (the paper's AV models): the box is axis-aligned in
/// its own frame, rotated by `yaw` about Z, and translated to `center`.
///
/// # Example
///
/// ```
/// use omg_geom::{BBox3D, Vec3};
///
/// let b = BBox3D::new(Vec3::new(10.0, 0.0, 1.0), Vec3::new(4.0, 2.0, 1.6), 0.0)?;
/// assert_eq!(b.volume(), 4.0 * 2.0 * 1.6);
/// assert_eq!(b.corners().len(), 8);
/// # Ok::<(), omg_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox3D {
    center: Vec3,
    /// Full extents along the box's local (length, width, height) axes.
    size: Vec3,
    yaw: f64,
}

impl BBox3D {
    /// Creates an oriented 3D box.
    ///
    /// `size` holds full extents `(length, width, height)`; all must be
    /// non-negative and finite. `yaw` is the rotation about the up axis in
    /// radians.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidBox`] on negative or non-finite extents
    /// or a non-finite yaw/center.
    pub fn new(center: Vec3, size: Vec3, yaw: f64) -> Result<Self, GeomError> {
        let finite = [center.x, center.y, center.z, size.x, size.y, size.z, yaw]
            .iter()
            .all(|v| v.is_finite());
        if !finite {
            return Err(GeomError::InvalidBox {
                detail: "non-finite 3d box parameters".to_string(),
            });
        }
        if size.x < 0.0 || size.y < 0.0 || size.z < 0.0 {
            return Err(GeomError::InvalidBox {
                detail: format!("negative extents ({}, {}, {})", size.x, size.y, size.z),
            });
        }
        Ok(Self { center, size, yaw })
    }

    /// Box center in world coordinates.
    pub fn center(&self) -> Vec3 {
        self.center
    }

    /// Full extents `(length, width, height)` in the box's local frame.
    pub fn size(&self) -> Vec3 {
        self.size
    }

    /// Yaw about the up axis, radians.
    pub fn yaw(&self) -> f64 {
        self.yaw
    }

    /// Box volume.
    pub fn volume(&self) -> f64 {
        self.size.x * self.size.y * self.size.z
    }

    /// The eight corners in world coordinates.
    ///
    /// Order: the four bottom corners counter-clockwise, then the four top
    /// corners in the same XY order.
    pub fn corners(&self) -> [Vec3; 8] {
        let hx = self.size.x / 2.0;
        let hy = self.size.y / 2.0;
        let hz = self.size.z / 2.0;
        // Each corner is `local.rotated_z(yaw) + center`, written out with
        // the rotation's arithmetic rather than as an `array::map`: the
        // map instantiates `core::array::try_map`, which can stay an
        // out-of-line call from `CameraModel::project_box` depending on
        // how the crate is split into codegen units, while the written
        // form keeps every corner's arithmetic inside `corners`.
        let (s, c) = self.yaw.sin_cos();
        let corner =
            |x: f64, y: f64, z: f64| Vec3::new(c * x - s * y, s * x + c * y, z) + self.center;
        [
            corner(hx, hy, -hz),
            corner(-hx, hy, -hz),
            corner(-hx, -hy, -hz),
            corner(hx, -hy, -hz),
            corner(hx, hy, hz),
            corner(-hx, hy, hz),
            corner(-hx, -hy, hz),
            corner(hx, -hy, hz),
        ]
    }

    /// Translates the box by `delta`.
    pub fn translated(&self, delta: Vec3) -> BBox3D {
        BBox3D {
            center: self.center + delta,
            ..*self
        }
    }

    /// Bird's-eye-view IoU using the axis-aligned footprints of the two
    /// boxes (an approximation that ignores yaw, adequate for the mostly
    /// axis-aligned traffic the AV simulator generates).
    pub fn iou_bev_aabb(&self, other: &BBox3D) -> f64 {
        // Fast reject before the corner math, per axis against the
        // footprint AABB half-extents: a box yawed by `yaw` has an
        // axis-aligned footprint of half-width (|sx·cos| + |sy·sin|)/2
        // and half-height (|sx·sin| + |sy·cos|)/2 — the same extents the
        // corner fold below recovers, so the comparison is against the
        // quantity the IoU is actually computed over (a radius-based
        // reject is unsound here: the footprint AABB of a yawed box
        // extends beyond the rotated rectangle's half-diagonal disk).
        // The relative margin keeps the reject conservative against
        // ulp-level rounding differences from the corner-derived
        // extents: a false accept falls through to the exact math, a
        // false reject would change results.
        let (sin_a, cos_a) = self.yaw.sin_cos();
        let (sin_b, cos_b) = other.yaw.sin_cos();
        let hxa = ((self.size.x * cos_a).abs() + (self.size.y * sin_a).abs()) / 2.0;
        let hya = ((self.size.x * sin_a).abs() + (self.size.y * cos_a).abs()) / 2.0;
        let hxb = ((other.size.x * cos_b).abs() + (other.size.y * sin_b).abs()) / 2.0;
        let hyb = ((other.size.x * sin_b).abs() + (other.size.y * cos_b).abs()) / 2.0;
        let dx = (self.center.x - other.center.x).abs();
        let dy = (self.center.y - other.center.y).abs();
        const MARGIN: f64 = 1.0 + 1e-9;
        if dx > (hxa + hxb) * MARGIN || dy > (hya + hyb) * MARGIN {
            return 0.0;
        }
        let fp = |b: &BBox3D| {
            let cs = b.corners();
            let xs = cs.iter().map(|c| c.x);
            let ys = cs.iter().map(|c| c.y);
            (
                xs.clone().fold(f64::INFINITY, omg_core::float::fmin),
                ys.clone().fold(f64::INFINITY, omg_core::float::fmin),
                xs.fold(f64::NEG_INFINITY, omg_core::float::fmax),
                ys.fold(f64::NEG_INFINITY, omg_core::float::fmax),
            )
        };
        let (ax1, ay1, ax2, ay2) = fp(self);
        let (bx1, by1, bx2, by2) = fp(other);
        let iw = (ax2.min(bx2) - ax1.max(bx1)).max(0.0);
        let ih = (ay2.min(by2) - ay1.max(by1)).max(0.0);
        let inter = iw * ih;
        let a = (ax2 - ax1) * (ay2 - ay1);
        let b = (bx2 - bx1) * (by2 - by1);
        let union = a + b - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Distance between box centers.
    pub fn center_distance(&self, other: &BBox3D) -> f64 {
        self.center.distance(&other.center)
    }

    /// The axis-aligned bird's-eye-view footprint: the tightest 2D box
    /// (world X × Y) containing all eight corners — the same footprint
    /// [`BBox3D::iou_bev_aabb`] intersects.
    pub fn footprint_aabb(&self) -> BBox2D {
        let cs = self.corners();
        let (mut x1, mut y1) = (f64::INFINITY, f64::INFINITY);
        let (mut x2, mut y2) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for c in cs {
            x1 = x1.min(c.x);
            y1 = y1.min(c.y);
            x2 = x2.max(c.x);
            y2 = y2.max(c.y);
        }
        // PANIC: min/max over the eight finite corners are ordered.
        BBox2D::new(x1, y1, x2, y2).expect("corner extrema are finite and ordered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(cx: f64, cy: f64, l: f64, w: f64) -> BBox3D {
        BBox3D::new(Vec3::new(cx, cy, 1.0), Vec3::new(l, w, 2.0), 0.0).unwrap()
    }

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(BBox3D::new(Vec3::ZERO, Vec3::new(-1.0, 1.0, 1.0), 0.0).is_err());
        assert!(BBox3D::new(Vec3::new(f64::NAN, 0.0, 0.0), Vec3::ZERO, 0.0).is_err());
        assert!(BBox3D::new(Vec3::ZERO, Vec3::ZERO, f64::INFINITY).is_err());
    }

    #[test]
    fn volume_and_accessors() {
        let b = boxed(0.0, 0.0, 4.0, 2.0);
        assert_eq!(b.volume(), 16.0);
        assert_eq!(b.size().x, 4.0);
        assert_eq!(b.yaw(), 0.0);
    }

    #[test]
    fn corners_axis_aligned() {
        let b = boxed(10.0, 20.0, 4.0, 2.0);
        let cs = b.corners();
        let min_x = cs.iter().map(|c| c.x).fold(f64::INFINITY, f64::min);
        let max_x = cs.iter().map(|c| c.x).fold(f64::NEG_INFINITY, f64::max);
        assert!((min_x - 8.0).abs() < 1e-12);
        assert!((max_x - 12.0).abs() < 1e-12);
        let min_z = cs.iter().map(|c| c.z).fold(f64::INFINITY, f64::min);
        assert!((min_z - 0.0).abs() < 1e-12);
    }

    #[test]
    fn corners_rotate_with_yaw() {
        let b = BBox3D::new(
            Vec3::ZERO,
            Vec3::new(4.0, 2.0, 2.0),
            std::f64::consts::FRAC_PI_2,
        )
        .unwrap();
        let cs = b.corners();
        // After a 90° yaw the long axis lies along Y.
        let max_y = cs.iter().map(|c| c.y).fold(f64::NEG_INFINITY, f64::max);
        assert!((max_y - 2.0).abs() < 1e-9);
        let max_x = cs.iter().map(|c| c.x).fold(f64::NEG_INFINITY, f64::max);
        assert!((max_x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn corners_equal_the_mapped_rotation_to_the_bit() {
        let yaws = [0.0, 0.3, -0.7, 1.2, std::f64::consts::FRAC_PI_4, 3.0, -2.5];
        let sizes = [
            (4.0, 2.0, 1.6),
            (0.0, 0.0, 0.0),
            (12.5, 2.6, 3.9),
            (0.3, 7.0, 1e-3),
        ];
        for &yaw in &yaws {
            for &(l, w, h) in &sizes {
                let center = Vec3::new(13.7, -4.2, 0.8);
                let b = BBox3D::new(center, Vec3::new(l, w, h), yaw).unwrap();
                let (hx, hy, hz) = (l / 2.0, w / 2.0, h / 2.0);
                let locals = [
                    Vec3::new(hx, hy, -hz),
                    Vec3::new(-hx, hy, -hz),
                    Vec3::new(-hx, -hy, -hz),
                    Vec3::new(hx, -hy, -hz),
                    Vec3::new(hx, hy, hz),
                    Vec3::new(-hx, hy, hz),
                    Vec3::new(-hx, -hy, hz),
                    Vec3::new(hx, -hy, hz),
                ];
                let want = locals.map(|p| p.rotated_z(yaw) + center);
                let bits = |cs: [Vec3; 8]| cs.map(|c| [c.x, c.y, c.z].map(f64::to_bits));
                assert_eq!(
                    bits(b.corners()),
                    bits(want),
                    "yaw {yaw}, size ({l}, {w}, {h})"
                );
            }
        }
    }

    #[test]
    fn bev_iou_identity_and_disjoint() {
        let a = boxed(0.0, 0.0, 4.0, 2.0);
        assert!((a.iou_bev_aabb(&a) - 1.0).abs() < 1e-12);
        let far = boxed(100.0, 100.0, 4.0, 2.0);
        assert_eq!(a.iou_bev_aabb(&far), 0.0);
    }

    #[test]
    fn bev_iou_known_overlap() {
        // Two 4x2 footprints offset by 2 along X: inter 2*2=4, union 8+8-4=12.
        let a = boxed(0.0, 0.0, 4.0, 2.0);
        let b = boxed(2.0, 0.0, 4.0, 2.0);
        assert!((a.iou_bev_aabb(&b) - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn footprint_aabb_matches_corner_extent() {
        let b = boxed(10.0, 20.0, 4.0, 2.0);
        let fp = b.footprint_aabb();
        assert_eq!(
            (fp.x1(), fp.y1(), fp.x2(), fp.y2()),
            (8.0, 19.0, 12.0, 21.0)
        );
        // Rotated 90°: the long axis swings onto Y.
        let r = BBox3D::new(
            Vec3::new(10.0, 20.0, 1.0),
            Vec3::new(4.0, 2.0, 2.0),
            std::f64::consts::FRAC_PI_2,
        )
        .unwrap()
        .footprint_aabb();
        assert!((r.width() - 2.0).abs() < 1e-9);
        assert!((r.height() - 4.0).abs() < 1e-9);
    }

    /// IoU of the two footprint AABBs with no fast path at all — the
    /// quantity `iou_bev_aabb` must reproduce.
    fn brute_footprint_iou(a: &BBox3D, b: &BBox3D) -> f64 {
        let fa = a.footprint_aabb();
        let fb = b.footprint_aabb();
        let iw = (fa.x2().min(fb.x2()) - fa.x1().max(fb.x1())).max(0.0);
        let ih = (fa.y2().min(fb.y2()) - fa.y1().max(fb.y1())).max(0.0);
        let inter = iw * ih;
        let union = fa.width() * fa.height() + fb.width() * fb.height() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    #[test]
    fn bev_fast_reject_agrees_with_footprint_overlap() {
        // Just inside / outside the axis-aligned reject extents.
        let a = boxed(0.0, 0.0, 4.0, 2.0);
        let near = boxed(4.1, 0.0, 4.0, 2.0); // footprints disjoint, centers close
        assert_eq!(a.iou_bev_aabb(&near), 0.0);
        let overlapping = boxed(3.0, 0.0, 4.0, 2.0);
        assert!(a.iou_bev_aabb(&overlapping) > 0.0);
    }

    #[test]
    fn bev_fast_reject_sound_for_yawed_boxes() {
        // Regression: two 2×2 boxes at 45° yaw, centers (0,0) and
        // (2.7, 2.7). Their footprint AABBs are 2√2 wide, overlapping by
        // 2√2 − 2.7 ≈ 0.128 per axis — but both centers lie inside each
        // other's half-diagonal disk complement, so a radius-based
        // reject returned 0.0 here and silently changed BEV matching.
        let mk = |cx: f64, cy: f64| {
            BBox3D::new(
                Vec3::new(cx, cy, 1.0),
                Vec3::new(2.0, 2.0, 2.0),
                std::f64::consts::FRAC_PI_4,
            )
            .unwrap()
        };
        let a = mk(0.0, 0.0);
        let b = mk(2.7, 2.7);
        let iou = a.iou_bev_aabb(&b);
        assert!(iou > 0.0, "yawed overlap must not be fast-rejected");
        assert!((iou - brute_footprint_iou(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn bev_iou_matches_bruteforce_across_yaws_and_offsets() {
        // Sweep yaw pairs and center offsets around the reject boundary:
        // the fast path must never disagree with the no-fast-path
        // footprint IoU (in particular, every positive-IoU pair must
        // survive the reject).
        let yaws = [0.0, 0.3, std::f64::consts::FRAC_PI_4, 1.2, -0.7];
        let mut overlapping = 0u32;
        for &ya in &yaws {
            for &yb in &yaws {
                for step in 0..40 {
                    let d = f64::from(step) * 0.15;
                    let a = BBox3D::new(Vec3::ZERO, Vec3::new(4.0, 2.0, 2.0), ya).unwrap();
                    let b = BBox3D::new(Vec3::new(d, d * 0.5, 0.0), Vec3::new(3.0, 1.5, 2.0), yb)
                        .unwrap();
                    let brute = brute_footprint_iou(&a, &b);
                    assert!(
                        (a.iou_bev_aabb(&b) - brute).abs() < 1e-12,
                        "yaws ({ya}, {yb}), offset {d}: fast {} vs brute {brute}",
                        a.iou_bev_aabb(&b)
                    );
                    if brute > 0.0 {
                        overlapping += 1;
                    }
                }
            }
        }
        assert!(overlapping > 100, "sweep must exercise overlapping pairs");
    }

    #[test]
    fn translated_moves_center() {
        let b = boxed(0.0, 0.0, 4.0, 2.0).translated(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 4.0));
    }

    #[test]
    fn center_distance_known() {
        let a = boxed(0.0, 0.0, 1.0, 1.0);
        let b = boxed(3.0, 4.0, 1.0, 1.0);
        assert_eq!(a.center_distance(&b), 5.0);
    }

    #[test]
    fn yawed_footprint_iou_is_symmetric_to_the_bit() {
        let a = BBox3D::new(Vec3::new(0.0, 0.0, 1.0), Vec3::new(4.0, 2.0, 2.0), 0.7).unwrap();
        let b = BBox3D::new(Vec3::new(1.0, 0.5, 1.0), Vec3::new(3.0, 2.0, 2.0), -0.4).unwrap();
        let ab = a.iou_bev_aabb(&b);
        assert!(ab > 0.0 && ab < 1.0, "boxes overlap partially: {ab}");
        // The corner folds are total-order reductions, so operand order
        // cannot perturb the footprint bounds even in the last bit.
        assert_eq!(ab.to_bits(), b.iou_bev_aabb(&a).to_bits());
    }
}
