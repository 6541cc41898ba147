//! Evaluation substrate for the `omg` workspace.
//!
//! Implements the metrics the paper reports:
//!
//! * **mAP** for object detection (Figures 4 and 9, Table 4) via
//!   [`DetectionEvaluator`]: greedy confidence-ordered matching at an IoU
//!   threshold and all-point interpolated average precision, the convention
//!   used by MS-COCO-style evaluation at a fixed IoU.
//! * **Order statistics** ([`stats`]) — percentile ranks for the
//!   high-confidence-error analysis (Figure 3), means and standard errors
//!   for multi-trial experiment reporting.
//! * **Precision of assertions** (Table 3) is a straight proportion and is
//!   computed with [`stats::proportion`].
//! * A fixed-width [`table::Table`] renderer shared by every experiment
//!   binary in `omg-bench`.
//!
//! # Example: two-frame mAP
//!
//! ```
//! use omg_eval::{DetectionEvaluator, GtBox, ScoredBox};
//! use omg_geom::BBox2D;
//!
//! let mut ev = DetectionEvaluator::new(0.5);
//! let gt = GtBox { bbox: BBox2D::new(0.0, 0.0, 10.0, 10.0)?, class: 0 };
//! let hit = ScoredBox { bbox: BBox2D::new(1.0, 1.0, 11.0, 11.0)?, class: 0, score: 0.9 };
//! ev.add_frame(&[hit], &[gt.clone()]);
//! ev.add_frame(&[], &[gt]); // a miss
//! assert!((ev.map() - 0.5).abs() < 1e-9);
//! # Ok::<(), omg_geom::GeomError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ap;
mod detection;
pub mod stats;
pub mod table;

pub use ap::average_precision;
pub use detection::{match_frame, DetectionEvaluator, FrameMatch, GtBox, MatchOutcome, ScoredBox};
