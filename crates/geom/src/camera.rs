use crate::{BBox2D, BBox3D, GeomError, Vec3};

/// Intrinsic parameters of a pinhole camera.
///
/// `fx`/`fy` are focal lengths in pixels, `(cx, cy)` the principal point,
/// and `(width, height)` the image size in pixels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraIntrinsics {
    /// Focal length along x, pixels.
    pub fx: f64,
    /// Focal length along y, pixels.
    pub fy: f64,
    /// Principal point x, pixels.
    pub cx: f64,
    /// Principal point y, pixels.
    pub cy: f64,
    /// Image width, pixels.
    pub width: f64,
    /// Image height, pixels.
    pub height: f64,
}

impl CameraIntrinsics {
    /// A simple symmetric camera with the principal point at the image
    /// center.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidCamera`] if `f`, `width`, or `height` is
    /// non-positive or non-finite.
    pub fn centered(f: f64, width: f64, height: f64) -> Result<Self, GeomError> {
        if !(f.is_finite() && width.is_finite() && height.is_finite())
            || f <= 0.0
            || width <= 0.0
            || height <= 0.0
        {
            return Err(GeomError::InvalidCamera {
                detail: format!(
                    "focal length and image size must be positive (f={f}, {width}x{height})"
                ),
            });
        }
        Ok(Self {
            fx: f,
            fy: f,
            cx: width / 2.0,
            cy: height / 2.0,
            width,
            height,
        })
    }
}

/// A pinhole camera with a pose in the world (ego) frame.
///
/// World convention: X forward, Y left, Z up (the ego frame of the AV
/// simulator). The camera sits at `position` with heading `yaw` (rotation
/// about Z; `yaw = 0` looks along +X). Camera-frame axes follow the
/// computer-vision convention: x right, y down, z forward.
///
/// This is the substrate for the paper's `agree` assertion, which "projects
/// the 3D boxes onto the 2D camera plane to check for consistency" between
/// the LIDAR and camera models (§2.2).
///
/// # Example
///
/// ```
/// use omg_geom::{CameraIntrinsics, CameraModel, Vec3};
///
/// let cam = CameraModel::new(CameraIntrinsics::centered(1000.0, 1920.0, 1080.0)?,
///                            Vec3::new(0.0, 0.0, 1.5), 0.0);
/// // A point 20 m straight ahead at camera height projects to the center.
/// let (u, v) = cam.project_point(Vec3::new(20.0, 0.0, 1.5)).unwrap();
/// assert!((u - 960.0).abs() < 1e-9 && (v - 540.0).abs() < 1e-9);
/// # Ok::<(), omg_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraModel {
    intrinsics: CameraIntrinsics,
    position: Vec3,
    yaw: f64,
    near: f64,
}

impl CameraModel {
    /// Default near-plane distance in meters; points closer than this are
    /// considered unprojectable.
    const DEFAULT_NEAR: f64 = 0.1;

    /// Creates a camera at `position` with heading `yaw` (radians about Z).
    pub fn new(intrinsics: CameraIntrinsics, position: Vec3, yaw: f64) -> Self {
        Self {
            intrinsics,
            position,
            yaw,
            near: Self::DEFAULT_NEAR,
        }
    }

    /// The camera position in the world frame.
    pub fn position(&self) -> Vec3 {
        self.position
    }

    /// Transforms a world point into the camera frame
    /// (x right, y down, z forward).
    fn world_to_camera(&self, p: Vec3) -> Vec3 {
        let rel = (p - self.position).rotated_z(-self.yaw);
        // World (fwd, left, up) -> camera (right, down, fwd).
        Vec3::new(-rel.y, -rel.z, rel.x)
    }

    /// Projects a world point to pixel coordinates `(u, v)`.
    ///
    /// Returns `None` for points behind (or within `near` of) the camera.
    /// The returned pixel may lie outside the image bounds; callers that
    /// need on-image points should check against
    /// [`CameraIntrinsics::width`]/[`CameraIntrinsics::height`].
    pub fn project_point(&self, p: Vec3) -> Option<(f64, f64)> {
        let c = self.world_to_camera(p);
        if c.z < self.near {
            return None;
        }
        let u = self.intrinsics.fx * (c.x / c.z) + self.intrinsics.cx;
        let v = self.intrinsics.fy * (c.y / c.z) + self.intrinsics.cy;
        Some((u, v))
    }

    /// Projects a 3D box onto the image plane as the axis-aligned hull of
    /// its visible corners, clipped to the image.
    ///
    /// Returns `None` if fewer than two corners are in front of the camera
    /// or if the projected hull falls entirely outside the image.
    pub fn project_box(&self, b: &BBox3D) -> Option<BBox2D> {
        let mut min_u = f64::INFINITY;
        let mut min_v = f64::INFINITY;
        let mut max_u = f64::NEG_INFINITY;
        let mut max_v = f64::NEG_INFINITY;
        let mut visible = 0usize;
        for corner in b.corners() {
            if let Some((u, v)) = self.project_point(corner) {
                visible += 1;
                min_u = min_u.min(u);
                min_v = min_v.min(v);
                max_u = max_u.max(u);
                max_v = max_v.max(v);
            }
        }
        if visible < 2 {
            return None;
        }
        let hull = BBox2D::new(min_u, min_v, max_u, max_v).ok()?;
        let clipped = hull.clipped_to(self.intrinsics.width, self.intrinsics.height)?;
        if clipped.area() <= 0.0 {
            None
        } else {
            Some(clipped)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> CameraModel {
        CameraModel::new(
            CameraIntrinsics::centered(1000.0, 1920.0, 1080.0).unwrap(),
            Vec3::new(0.0, 0.0, 1.5),
            0.0,
        )
    }

    #[test]
    fn intrinsics_validation() {
        assert!(CameraIntrinsics::centered(0.0, 100.0, 100.0).is_err());
        assert!(CameraIntrinsics::centered(100.0, -1.0, 100.0).is_err());
        assert!(CameraIntrinsics::centered(f64::NAN, 100.0, 100.0).is_err());
    }

    #[test]
    fn point_straight_ahead_hits_center() {
        let (u, v) = cam().project_point(Vec3::new(10.0, 0.0, 1.5)).unwrap();
        assert!((u - 960.0).abs() < 1e-9);
        assert!((v - 540.0).abs() < 1e-9);
    }

    #[test]
    fn point_behind_is_rejected() {
        assert!(cam().project_point(Vec3::new(-5.0, 0.0, 1.5)).is_none());
        assert!(cam().project_point(Vec3::new(0.05, 0.0, 1.5)).is_none());
    }

    #[test]
    fn left_points_project_left_of_center() {
        // World +Y is left; image u should decrease.
        let (u, _) = cam().project_point(Vec3::new(10.0, 2.0, 1.5)).unwrap();
        assert!(u < 960.0);
        let (u2, _) = cam().project_point(Vec3::new(10.0, -2.0, 1.5)).unwrap();
        assert!(u2 > 960.0);
    }

    #[test]
    fn higher_points_project_above_center() {
        // World +Z is up; image v should decrease (v grows downward).
        let (_, v) = cam().project_point(Vec3::new(10.0, 0.0, 3.0)).unwrap();
        assert!(v < 540.0);
    }

    #[test]
    fn farther_objects_project_smaller() {
        let near = BBox3D::new(Vec3::new(10.0, 0.0, 1.0), Vec3::new(4.0, 2.0, 1.5), 0.0).unwrap();
        let far = BBox3D::new(Vec3::new(40.0, 0.0, 1.0), Vec3::new(4.0, 2.0, 1.5), 0.0).unwrap();
        let bn = cam().project_box(&near).unwrap();
        let bf = cam().project_box(&far).unwrap();
        assert!(bn.area() > bf.area());
    }

    #[test]
    fn box_behind_camera_is_invisible() {
        let b = BBox3D::new(Vec3::new(-20.0, 0.0, 1.0), Vec3::new(4.0, 2.0, 1.5), 0.0).unwrap();
        assert!(cam().project_box(&b).is_none());
    }

    #[test]
    fn box_far_to_the_side_is_clipped_out() {
        let b = BBox3D::new(Vec3::new(5.0, 200.0, 1.0), Vec3::new(4.0, 2.0, 1.5), 0.0).unwrap();
        assert!(cam().project_box(&b).is_none());
    }

    #[test]
    fn yawed_camera_sees_sideways() {
        let side_cam = CameraModel::new(
            CameraIntrinsics::centered(1000.0, 1920.0, 1080.0).unwrap(),
            Vec3::new(0.0, 0.0, 1.5),
            std::f64::consts::FRAC_PI_2, // looking along +Y (left)
        );
        let b = BBox3D::new(Vec3::new(0.0, 20.0, 1.0), Vec3::new(4.0, 2.0, 1.5), 0.0).unwrap();
        assert!(side_cam.project_box(&b).is_some());
        // And the forward camera does not see it.
        assert!(cam().project_box(&b).is_none());
    }

    #[test]
    fn projection_is_consistent_under_camera_translation() {
        let c1 = cam();
        let c2 = CameraModel::new(c1.intrinsics, Vec3::new(5.0, 1.0, 1.5), 0.0);
        let p = Vec3::new(15.0, 1.0, 1.5); // 10 m ahead of c2, on its axis
        let (u, v) = c2.project_point(p).unwrap();
        assert!((u - 960.0).abs() < 1e-9);
        assert!((v - 540.0).abs() < 1e-9);
    }
}
