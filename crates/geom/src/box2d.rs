use crate::GeomError;

/// An axis-aligned 2D bounding box in image coordinates.
///
/// Coordinates follow the usual computer-vision convention: `x` grows right,
/// `y` grows down, and the box spans `[x1, x2] × [y1, y2]` with `x1 <= x2`
/// and `y1 <= y2`. Degenerate (zero-area) boxes are permitted; invalid
/// (inverted or non-finite) boxes are rejected at construction.
///
/// # Example
///
/// ```
/// use omg_geom::BBox2D;
///
/// let b = BBox2D::new(2.0, 3.0, 6.0, 9.0)?;
/// assert_eq!(b.width(), 4.0);
/// assert_eq!(b.height(), 6.0);
/// assert_eq!(b.area(), 24.0);
/// # Ok::<(), omg_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox2D {
    x1: f64,
    y1: f64,
    x2: f64,
    y2: f64,
}

impl BBox2D {
    /// Creates a box from its min/max corners.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidBox`] if any coordinate is non-finite or
    /// if `x1 > x2` or `y1 > y2`.
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Result<Self, GeomError> {
        if ![x1, y1, x2, y2].iter().all(|v| v.is_finite()) {
            return Err(GeomError::InvalidBox {
                detail: format!("non-finite coordinates ({x1}, {y1}, {x2}, {y2})"),
            });
        }
        if x1 > x2 || y1 > y2 {
            return Err(GeomError::InvalidBox {
                detail: format!("inverted corners ({x1}, {y1}) > ({x2}, {y2})"),
            });
        }
        Ok(Self { x1, y1, x2, y2 })
    }

    /// Creates a box from its center, width, and height.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidBox`] if the resulting corners are invalid
    /// (e.g. negative `w` or `h`, or non-finite inputs).
    pub fn from_center(cx: f64, cy: f64, w: f64, h: f64) -> Result<Self, GeomError> {
        Self::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
    }

    /// Minimum x coordinate (left edge).
    pub fn x1(&self) -> f64 {
        self.x1
    }

    /// Minimum y coordinate (top edge).
    pub fn y1(&self) -> f64 {
        self.y1
    }

    /// Maximum x coordinate (right edge).
    pub fn x2(&self) -> f64 {
        self.x2
    }

    /// Maximum y coordinate (bottom edge).
    pub fn y2(&self) -> f64 {
        self.y2
    }

    /// Box width (`x2 - x1`), always non-negative.
    pub fn width(&self) -> f64 {
        self.x2 - self.x1
    }

    /// Box height (`y2 - y1`), always non-negative.
    pub fn height(&self) -> f64 {
        self.y2 - self.y1
    }

    /// Box area, always non-negative.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point `(cx, cy)`.
    pub fn center(&self) -> (f64, f64) {
        ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)
    }

    /// Whether the two boxes intersect at all (touching edges count).
    ///
    /// This is the cheap fast-reject the grid index runs on its
    /// candidates: four comparisons, no arithmetic.
    #[inline]
    pub fn intersects(&self, other: &BBox2D) -> bool {
        self.x1 <= other.x2 && other.x1 <= self.x2 && self.y1 <= other.y2 && other.y1 <= self.y2
    }

    /// Intersection box of `self` and `other`, or `None` if they are
    /// disjoint (touching edges count as an empty, `None` intersection only
    /// when the overlap has zero area on both axes is still returned as a
    /// degenerate box; strictly separated boxes return `None`).
    fn intersection(&self, other: &BBox2D) -> Option<BBox2D> {
        let x1 = self.x1.max(other.x1);
        let y1 = self.y1.max(other.y1);
        let x2 = self.x2.min(other.x2);
        let y2 = self.y2.min(other.y2);
        if x1 > x2 || y1 > y2 {
            None
        } else {
            Some(BBox2D { x1, y1, x2, y2 })
        }
    }

    /// Area of the intersection of `self` and `other` (zero if disjoint).
    pub fn intersection_area(&self, other: &BBox2D) -> f64 {
        self.intersection(other).map_or(0.0, |b| b.area())
    }

    /// Intersection-over-union in `[0, 1]`.
    ///
    /// Two degenerate (zero-area) boxes have IoU `0`, including with
    /// themselves; this matches the convention used by detection benchmarks
    /// where zero-area boxes can never match anything.
    ///
    /// The overlap's width and height are taken once, as
    /// the intersection takes them; a negative one means the
    /// boxes are disjoint, which for finite coordinates is exactly when
    /// [`BBox2D::intersects`] fails. The result is bit for bit that of
    /// testing `intersects` and then taking
    /// [`BBox2D::intersection_area`].
    pub fn iou(&self, other: &BBox2D) -> f64 {
        let w = self.x2.min(other.x2) - self.x1.max(other.x1);
        let h = self.y2.min(other.y2) - self.y1.max(other.y1);
        if !(w >= 0.0 && h >= 0.0) {
            return 0.0;
        }
        let inter = w * h;
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Intersection-over-area-of-self: what fraction of `self` is covered by
    /// `other`. Useful for occlusion reasoning; asymmetric by design.
    pub fn overlap_fraction(&self, other: &BBox2D) -> f64 {
        let a = self.area();
        if a <= 0.0 {
            0.0
        } else {
            self.intersection_area(other) / a
        }
    }

    /// Whether `other` lies entirely within `self` (inclusive).
    pub fn contains_box(&self, other: &BBox2D) -> bool {
        other.x1 >= self.x1 && other.x2 <= self.x2 && other.y1 >= self.y1 && other.y2 <= self.y2
    }

    /// The smallest box containing both `self` and `other`.
    pub fn union_bounds(&self, other: &BBox2D) -> BBox2D {
        BBox2D {
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
            x2: self.x2.max(other.x2),
            y2: self.y2.max(other.y2),
        }
    }

    /// Translates the box by `(dx, dy)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the translation produces non-finite
    /// coordinates.
    pub fn translated(&self, dx: f64, dy: f64) -> BBox2D {
        debug_assert!(dx.is_finite() && dy.is_finite());
        BBox2D {
            x1: self.x1 + dx,
            y1: self.y1 + dy,
            x2: self.x2 + dx,
            y2: self.y2 + dy,
        }
    }

    /// Scales the box about its center by `factor` (must be non-negative).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> BBox2D {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        let (cx, cy) = self.center();
        let w = self.width() * factor;
        let h = self.height() * factor;
        BBox2D {
            x1: cx - w / 2.0,
            y1: cy - h / 2.0,
            x2: cx + w / 2.0,
            y2: cy + h / 2.0,
        }
    }

    /// Clips the box to the rectangle `[0, w] × [0, h]`, returning `None` if
    /// the clipped box is empty (fully outside).
    pub fn clipped_to(&self, w: f64, h: f64) -> Option<BBox2D> {
        let frame = BBox2D {
            x1: 0.0,
            y1: 0.0,
            x2: w,
            y2: h,
        };
        self.intersection(&frame)
    }

    /// Linear interpolation between `self` (at `t = 0`) and `other`
    /// (at `t = 1`), interpolating each corner independently.
    ///
    /// Used by the weak-label correction rule that fills in flickered-out
    /// boxes by "averaging the locations of the object on nearby video
    /// frames" (paper §4.2).
    pub fn lerp(&self, other: &BBox2D, t: f64) -> BBox2D {
        let l = |a: f64, b: f64| a + (b - a) * t;
        BBox2D {
            x1: l(self.x1, other.x1),
            y1: l(self.y1, other.y1),
            x2: l(self.x2, other.x2),
            y2: l(self.y2, other.y2),
        }
    }

    /// Euclidean distance between box centers.
    pub fn center_distance(&self, other: &BBox2D) -> f64 {
        let (ax, ay) = self.center();
        let (bx, by) = other.center();
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x1: f64, y1: f64, x2: f64, y2: f64) -> BBox2D {
        BBox2D::new(x1, y1, x2, y2).unwrap()
    }

    #[test]
    fn new_rejects_inverted_and_nonfinite() {
        assert!(BBox2D::new(1.0, 0.0, 0.0, 1.0).is_err());
        assert!(BBox2D::new(0.0, 1.0, 1.0, 0.0).is_err());
        assert!(BBox2D::new(f64::NAN, 0.0, 1.0, 1.0).is_err());
        assert!(BBox2D::new(0.0, 0.0, f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn degenerate_boxes_are_allowed() {
        let b = bb(1.0, 1.0, 1.0, 1.0);
        assert_eq!(b.area(), 0.0);
        assert_eq!(b.iou(&b), 0.0);
    }

    #[test]
    fn intersects_matches_intersection_some() {
        let a = bb(0.0, 0.0, 10.0, 10.0);
        assert!(a.intersects(&bb(5.0, 5.0, 15.0, 15.0)));
        assert!(
            a.intersects(&bb(10.0, 0.0, 20.0, 10.0)),
            "touching edges intersect"
        );
        assert!(
            a.intersects(&bb(3.0, 3.0, 4.0, 4.0)),
            "containment intersects"
        );
        assert!(!a.intersects(&bb(10.01, 0.0, 20.0, 10.0)));
        assert!(!a.intersects(&bb(0.0, -5.0, 10.0, -0.01)));
        // Degenerate boxes still intersect anything covering their point.
        let point = bb(5.0, 5.0, 5.0, 5.0);
        assert!(a.intersects(&point));
        assert!(point.intersects(&a));
    }

    #[test]
    fn iou_identity() {
        let b = bb(0.0, 0.0, 4.0, 4.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = bb(0.0, 0.0, 1.0, 1.0);
        let b = bb(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.iou(&b), 0.0);
        assert!(a.intersection(&b).is_none());
    }

    /// `iou` in the two-step form it had before it took the overlap
    /// once: the `intersects` test, then `intersection_area`'s own
    /// max/min/compare pass, then the union and the division.
    fn two_step_iou(a: &BBox2D, b: &BBox2D) -> f64 {
        if !a.intersects(b) {
            return 0.0;
        }
        let inter = a.intersection_area(b);
        let union = a.area() + b.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// `iou` equals the two-step form bit for bit, NaN results by their
    /// bits, on every pair of a lattice of boxes whose edges take both
    /// signed zeros, touch and nest, give zero-area boxes, and span
    /// widths and areas that overflow `f64`.
    #[test]
    fn iou_is_the_two_step_form_bit_for_bit() {
        let edges = [-f64::MAX, -1.0, -0.0, 0.0, 1.0, 3.0, f64::MAX];
        let spans: Vec<(f64, f64)> = edges
            .iter()
            .flat_map(|&lo| {
                edges
                    .iter()
                    .filter(move |&&hi| lo <= hi)
                    .map(move |&hi| (lo, hi))
            })
            .collect();
        let boxes: Vec<BBox2D> = spans
            .iter()
            .flat_map(|&(x1, x2)| spans.iter().map(move |&(y1, y2)| bb(x1, y1, x2, y2)))
            .collect();
        let (mut nan, mut positive, mut differ) = (0, 0, Vec::new());
        for a in &boxes {
            for b in &boxes {
                let (got, want) = (a.iou(b), two_step_iou(a, b));
                if got.to_bits() != want.to_bits() {
                    differ.push((*a, *b, got, want));
                }
                nan += usize::from(want.is_nan());
                positive += usize::from(want > 0.0);
            }
        }
        let pairs = boxes.len() * boxes.len();
        assert!(
            differ.is_empty(),
            "{} of {pairs} pairs differ, first {:?}",
            differ.len(),
            differ.first()
        );
        assert!(nan > 0 && positive > 0, "{nan} NaN, {positive} positive");
    }

    #[test]
    fn iou_known_value() {
        // 10x10 boxes offset by 5 in each axis: inter 25, union 175.
        let a = bb(0.0, 0.0, 10.0, 10.0);
        let b = bb(5.0, 5.0, 15.0, 15.0);
        assert!((a.iou(&b) - 25.0 / 175.0).abs() < 1e-12);
    }

    #[test]
    fn touching_boxes_have_zero_iou_but_some_intersection_struct() {
        let a = bb(0.0, 0.0, 1.0, 1.0);
        let b = bb(1.0, 0.0, 2.0, 1.0);
        // Shared edge: degenerate intersection, zero area.
        let inter = a.intersection(&b).unwrap();
        assert_eq!(inter.area(), 0.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn overlap_fraction_is_asymmetric() {
        let small = bb(0.0, 0.0, 1.0, 1.0);
        let big = bb(0.0, 0.0, 10.0, 10.0);
        assert!((small.overlap_fraction(&big) - 1.0).abs() < 1e-12);
        assert!((big.overlap_fraction(&small) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn contains_box_is_inclusive() {
        let b = bb(0.0, 0.0, 10.0, 10.0);
        assert!(b.contains_box(&bb(1.0, 1.0, 9.0, 9.0)));
        assert!(!b.contains_box(&bb(1.0, 1.0, 11.0, 9.0)));
    }

    #[test]
    fn union_bounds_covers_both() {
        let a = bb(0.0, 0.0, 1.0, 1.0);
        let b = bb(5.0, -2.0, 6.0, 3.0);
        let u = a.union_bounds(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
        assert_eq!(u.x1(), 0.0);
        assert_eq!(u.y1(), -2.0);
        assert_eq!(u.x2(), 6.0);
        assert_eq!(u.y2(), 3.0);
    }

    #[test]
    fn translated_and_scaled() {
        let b = bb(0.0, 0.0, 2.0, 4.0);
        let t = b.translated(1.0, -1.0);
        assert_eq!(t.x1(), 1.0);
        assert_eq!(t.y1(), -1.0);
        let s = b.scaled(2.0);
        assert_eq!(s.width(), 4.0);
        assert_eq!(s.height(), 8.0);
        assert_eq!(s.center(), b.center());
        let z = b.scaled(0.0);
        assert_eq!(z.area(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scaled_rejects_negative() {
        bb(0.0, 0.0, 1.0, 1.0).scaled(-1.0);
    }

    #[test]
    fn clipped_to_frame() {
        let b = bb(-5.0, -5.0, 5.0, 5.0);
        let c = b.clipped_to(100.0, 100.0).unwrap();
        assert_eq!((c.x1(), c.y1(), c.x2(), c.y2()), (0.0, 0.0, 5.0, 5.0));
        let outside = bb(-10.0, -10.0, -5.0, -5.0);
        assert!(outside.clipped_to(100.0, 100.0).is_none());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = bb(0.0, 0.0, 2.0, 2.0);
        let b = bb(10.0, 10.0, 14.0, 14.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let m = a.lerp(&b, 0.5);
        assert_eq!((m.x1(), m.y1()), (5.0, 5.0));
        assert_eq!((m.x2(), m.y2()), (8.0, 8.0));
    }

    #[test]
    fn center_distance_known() {
        let a = bb(0.0, 0.0, 2.0, 2.0); // center (1,1)
        let b = bb(3.0, 5.0, 5.0, 7.0); // center (4,6)
        assert!((a.center_distance(&b) - (9.0f64 + 25.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn from_center_round_trip() {
        let b = BBox2D::from_center(5.0, 5.0, 4.0, 2.0).unwrap();
        assert_eq!(b.center(), (5.0, 5.0));
        assert_eq!(b.width(), 4.0);
        assert_eq!(b.height(), 2.0);
        assert!(BBox2D::from_center(0.0, 0.0, -1.0, 1.0).is_err());
    }
}
