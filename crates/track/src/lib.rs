//! Multi-object tracking substrate.
//!
//! The paper's video consistency assertions need identifiers for detected
//! objects: "Because we lack a globally unique identifier (e.g., license
//! plate number) for each object, we can assign a new identifier for each
//! box that appears and assign the same identifier as it persists through
//! the video" (§4.1). [`IouAssociator`] implements exactly that: greedy
//! IoU-based association of boxes across frames, keeping only the live
//! tracks. [`IouTracker`] is that associator plus the history of every
//! track, which the uses below read.
//!
//! The tracker also powers:
//!
//! * the human-label validation experiment (Appendix E), which "tracked
//!   objects across frames of a video using an automated method and
//!   verified that the same object in different frames had the same label";
//! * weak-label box imputation ([`interpolate_gaps`]), which fills
//!   flickered-out frames by interpolating "the locations of the object on
//!   nearby video frames" (§4.2).
//!
//! # Example
//!
//! ```
//! use omg_geom::BBox2D;
//! use omg_track::{IouTracker, Observation};
//!
//! let mut tracker = IouTracker::new(0.3, 3);
//! let car = |x: f64| Observation { bbox: BBox2D::new(x, 0.0, x + 10.0, 10.0).unwrap(), class: 0, score: 0.9 };
//! let ids0 = tracker.update(0, &[car(0.0)]);
//! let ids1 = tracker.update(1, &[car(2.0)]);
//! assert_eq!(ids0[0], ids1[0]); // same physical object, same track id
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Module split: `track` holds the data model ([`Track`], [`Observation`],
// [`TrackId`]); `tracker` holds the association algorithm
// ([`IouAssociator`]) and the tracker that records its output
// ([`IouTracker`]). Similar names, deliberately distinct roles.
mod interpolate;
mod track;
mod tracker;

pub use interpolate::interpolate_gaps;
pub use track::{Observation, Track, TrackId};
pub use tracker::{IouAssociator, IouTracker};
