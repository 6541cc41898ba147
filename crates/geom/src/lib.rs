//! Geometry substrate for the `omg` workspace.
//!
//! This crate provides the 2D/3D geometric primitives that every sensor
//! simulator, tracker, assertion, and evaluation metric in the workspace is
//! built on:
//!
//! * [`BBox2D`] — axis-aligned 2D bounding boxes with intersection-over-union
//!   ([`BBox2D::iou`]), the primitive behind detection matching, the
//!   `multibox`/`flicker`/`appear` assertions, and mAP evaluation.
//! * [`BBox3D`] — oriented 3D boxes (center, size, yaw) as produced by the
//!   simulated LIDAR detector.
//! * [`Vec3`] — minimal 3D vector math.
//! * [`CameraModel`] — a pinhole camera with pose, used to project 3D boxes
//!   onto the 2D image plane for the paper's `agree` assertion
//!   ("projects the 3D boxes onto the 2D camera plane to check for
//!   consistency", §2.2).
//! * [`grid`] — a uniform spatial grid index ([`grid::GridIndex2D`]),
//!   built once over a borrowed slice, that makes box matching
//!   sub-quadratic.
//! * [`matchers`] — the three indexed matchers every assertion routes
//!   through (association pairs, overlap triples, agreement counts),
//!   each picking the grid or the reference scan from its input.
//! * [`reference`](mod@reference) — the preserved O(n²) pairwise
//!   scans: equivalence oracle, benchmark baseline, and small-input
//!   fallback.
//!
//! # Example
//!
//! ```
//! use omg_geom::BBox2D;
//!
//! let a = BBox2D::new(0.0, 0.0, 10.0, 10.0)?;
//! let b = BBox2D::new(5.0, 5.0, 15.0, 15.0)?;
//! assert!((a.iou(&b) - 25.0 / 175.0).abs() < 1e-12);
//! # Ok::<(), omg_geom::GeomError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod box2d;
mod box3d;
mod camera;
mod error;
pub mod grid;
pub mod matchers;
pub mod reference;
mod vec3;

pub use box2d::BBox2D;
pub use box3d::BBox3D;
pub use camera::{CameraIntrinsics, CameraModel};
pub use error::GeomError;
pub use vec3::Vec3;
