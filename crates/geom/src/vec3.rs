use std::ops::{Add, Mul, Neg, Sub};

/// A 3D vector/point with `f64` components.
///
/// Used for world-space object positions in the AV simulator and by the
/// pinhole camera model.
///
/// # Example
///
/// ```
/// use omg_geom::Vec3;
///
/// let v = Vec3::new(3.0, 4.0, 0.0);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!(v + Vec3::new(1.0, 0.0, 0.0), Vec3::new(4.0, 4.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (forward, in the AV ego frame).
    pub x: f64,
    /// Y component (left, in the AV ego frame).
    pub y: f64,
    /// Z component (up, in the AV ego frame).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Dot product.
    pub fn dot(&self, other: &Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Vec3) -> f64 {
        (*self - *other).norm()
    }

    /// Rotates the vector about the Z (up) axis by `yaw` radians
    /// (counter-clockwise when viewed from +Z).
    pub fn rotated_z(&self, yaw: f64) -> Vec3 {
        let (s, c) = yaw.sin_cos();
        Vec3 {
            x: c * self.x - s * self.y,
            y: s * self.x + c * self.y,
            z: self.z,
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_of_orthogonal_axes_is_zero() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(&y), 0.0);
    }

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert_eq!(v.norm(), 13.0);
        assert_eq!(Vec3::ZERO.distance(&v), 13.0);
    }

    #[test]
    fn rotation_quarter_turn() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let r = x.rotated_z(std::f64::consts::FRAC_PI_2);
        assert!((r.x).abs() < 1e-12);
        assert!((r.y - 1.0).abs() < 1e-12);
        assert_eq!(r.z, 0.0);
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec3::new(2.0, -3.0, 5.0);
        for k in 0..8 {
            let r = v.rotated_z(k as f64 * 0.7);
            assert!((r.norm() - v.norm()).abs() < 1e-9);
        }
    }
}
