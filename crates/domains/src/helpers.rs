//! Shared helper functions used by the deployed assertions.
//!
//! The paper's Table 2 counts assertion LOC both excluding and including
//! shared helpers ("we double counted the helper functions when used
//! between assertions"); the `// BEGIN HELPER <name>` / `// END HELPER`
//! markers delimit what the Table 2 experiment counts for each helper.

use omg_core::consistency::{AttrValue, ConsistencySpec, ConsistencyWindow};
use omg_eval::ScoredBox;
use omg_geom::BBox2D;
use omg_track::{IouTracker, Observation};

use crate::prepared::{TRACK_IOU, TRACK_MAX_AGE};
use crate::VideoWindow;

// BEGIN HELPER tracked_box
/// A detection with the tracker-assigned identifier — the output type the
/// video consistency spec runs over ("we can assign a new identifier for
/// each box that appears and assign the same identifier as it persists
/// through the video", §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedBox {
    /// Tracker-assigned identifier.
    pub track: u64,
    /// Predicted class.
    pub class: usize,
    /// Detected box.
    pub bbox: BBox2D,
}

/// The video consistency spec: identifier = track id, attribute = class.
#[derive(Debug, Clone, Copy, Default)]
pub struct VideoTrackSpec;

impl ConsistencySpec for VideoTrackSpec {
    type Output = TrackedBox;
    type Id = u64;

    fn id(&self, o: &TrackedBox) -> u64 {
        o.track
    }

    fn attrs(&self, o: &TrackedBox) -> Vec<(String, AttrValue)> {
        vec![("class".to_string(), AttrValue::class(o.class))]
    }

    fn attr_keys(&self) -> Vec<String> {
        vec!["class".to_string()]
    }
}
// END HELPER tracked_box

// BEGIN HELPER track_window
/// Runs the IoU tracker over a video window and returns the tracked
/// outputs as a consistency window (time → tracked boxes).
pub fn track_window(window: &VideoWindow) -> ConsistencyWindow<TrackedBox> {
    let mut tracker = IouTracker::new(TRACK_IOU, TRACK_MAX_AGE);
    let mut out = ConsistencyWindow::new();
    for (fi, frame) in window.frames.iter().enumerate() {
        let observations: Vec<Observation> = frame
            .dets
            .iter()
            .map(|d| Observation {
                bbox: d.bbox,
                class: d.class,
                score: d.score,
            })
            .collect();
        let ids = tracker.update(fi, &observations);
        let tracked = frame
            .dets
            .iter()
            .zip(&ids)
            .map(|(d, id)| TrackedBox {
                track: id.0,
                class: d.class,
                bbox: d.bbox,
            })
            .collect();
        out.push(frame.time, tracked);
    }
    out
}
// END HELPER track_window

// BEGIN HELPER overlap_triples
/// Counts triples of same-class boxes that pairwise overlap above the
/// IoU threshold — the paper's `multibox` condition ("three boxes highly
/// overlap", Figure 7). Delegates to the spatial matcher in `omg-geom`
/// (grid-indexed in crowded frames, pairwise otherwise).
pub fn overlap_triples(dets: &[ScoredBox], iou_threshold: f64) -> usize {
    let boxes: Vec<BBox2D> = dets.iter().map(|d| d.bbox).collect();
    let classes: Vec<usize> = dets.iter().map(|d| d.class).collect();
    omg_geom::matchers::overlap_triples(&boxes, &classes, iou_threshold)
}
// END HELPER overlap_triples

// BEGIN HELPER no_overlap
/// Whether `bbox` overlaps none of `others` at or above the threshold —
/// the `no_overlap` predicate of the paper's `sensor_agreement` example
/// (§2.1).
pub fn no_overlap<'a, I>(bbox: &BBox2D, others: I, iou_threshold: f64) -> bool
where
    I: IntoIterator<Item = &'a BBox2D>,
{
    let targets: Vec<BBox2D> = others.into_iter().copied().collect();
    count_no_overlap(std::slice::from_ref(bbox), &targets, iou_threshold) == 1
}

/// Counts the `queries` that overlap none of `targets` at or above the
/// threshold — the batch form of `no_overlap` the agreement assertions
/// use, so a crowded frame is one indexed lookup instead of an O(n²)
/// scan.
pub fn count_no_overlap(queries: &[BBox2D], targets: &[BBox2D], iou_threshold: f64) -> usize {
    omg_geom::matchers::count_unmatched(queries, targets, iou_threshold)
}
// END HELPER no_overlap

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VideoFrame;

    fn sb(x: f64, class: usize, score: f64) -> ScoredBox {
        ScoredBox {
            bbox: BBox2D::new(x, 0.0, x + 10.0, 10.0).unwrap(),
            class,
            score,
        }
    }

    #[test]
    fn track_window_assigns_stable_ids() {
        let frames = vec![
            VideoFrame {
                index: 0,
                time: 0.0,
                dets: vec![sb(0.0, 0, 0.9), sb(100.0, 1, 0.8)],
            },
            VideoFrame {
                index: 1,
                time: 0.1,
                dets: vec![sb(1.0, 0, 0.9), sb(101.0, 1, 0.8)],
            },
        ];
        let w = VideoWindow::new(frames, 0);
        let cw = track_window(&w);
        assert_eq!(cw.len(), 2);
        let t0 = cw.outputs_at(0);
        let t1 = cw.outputs_at(1);
        assert_eq!(t0[0].track, t1[0].track);
        assert_eq!(t0[1].track, t1[1].track);
        assert_ne!(t0[0].track, t0[1].track);
    }

    #[test]
    fn overlap_triples_counts() {
        // Three boxes stacked on each other: one triple.
        let cluster = vec![sb(0.0, 0, 0.9), sb(1.0, 0, 0.8), sb(2.0, 0, 0.7)];
        assert_eq!(overlap_triples(&cluster, 0.3), 1);
        // A fourth overlapping box: C(4,3) = 4 triples.
        let mut four = cluster.clone();
        four.push(sb(1.5, 0, 0.6));
        assert_eq!(overlap_triples(&four, 0.3), 4);
        // Different classes never form a triple.
        let mixed = vec![sb(0.0, 0, 0.9), sb(1.0, 1, 0.8), sb(2.0, 0, 0.7)];
        assert_eq!(overlap_triples(&mixed, 0.3), 0);
        // Disjoint boxes never form a triple.
        let apart = vec![sb(0.0, 0, 0.9), sb(50.0, 0, 0.8), sb(100.0, 0, 0.7)];
        assert_eq!(overlap_triples(&apart, 0.3), 0);
        assert_eq!(overlap_triples(&[], 0.3), 0);
    }

    #[test]
    fn no_overlap_predicate() {
        let b = BBox2D::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let near = BBox2D::new(2.0, 0.0, 12.0, 10.0).unwrap();
        let far = BBox2D::new(100.0, 0.0, 110.0, 10.0).unwrap();
        assert!(no_overlap(&b, [&far], 0.1));
        assert!(!no_overlap(&b, [&near], 0.1));
        assert!(no_overlap(&b, std::iter::empty::<&BBox2D>(), 0.1));
    }

    #[test]
    fn video_spec_maps_ids_and_attrs() {
        let spec = VideoTrackSpec;
        let tb = TrackedBox {
            track: 7,
            class: 2,
            bbox: BBox2D::new(0.0, 0.0, 1.0, 1.0).unwrap(),
        };
        assert_eq!(spec.id(&tb), 7);
        assert_eq!(spec.attrs(&tb)[0].1, AttrValue::class(2));
        assert_eq!(spec.attr_keys(), vec!["class"]);
    }
}
