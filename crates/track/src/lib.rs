//! Multi-object identification substrate.
//!
//! The paper's video consistency assertions need identifiers for detected
//! objects: "Because we lack a globally unique identifier (e.g., license
//! plate number) for each object, we can assign a new identifier for each
//! box that appears and assign the same identifier as it persists through
//! the video" (§4.1). [`IouAssociator`] implements exactly that: greedy
//! IoU-based association of boxes across frames, keeping only the live
//! tracks, and issuing ids 0, 1, 2, … as [`TrackId`]s.
//!
//! Every use of identity runs the associator: the `flicker`, `appear` and
//! `fusion-flicker` assertions and their prepared forms, the weak-label
//! rules (§4.2), and the human-label validation experiment (Appendix E),
//! which "tracked objects across frames of a video using an automated
//! method and verified that the same object in different frames had the
//! same label". Whatever a caller keeps per track, such as its label
//! classes, it keeps itself, indexed by id.
//!
//! # Example
//!
//! ```
//! use omg_geom::BBox2D;
//! use omg_track::IouAssociator;
//!
//! let mut associator = IouAssociator::new(0.3, 3);
//! let car = |x: f64| BBox2D::new(x, 0.0, x + 10.0, 10.0).unwrap();
//! let first = associator.assign(0, [car(0.0)])[0];
//! let second = associator.assign(1, [car(2.0)])[0];
//! assert_eq!(first, second); // same physical object, same track id
//! assert_eq!(associator.num_tracks(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tracker;

pub use tracker::{IouAssociator, TrackId};
