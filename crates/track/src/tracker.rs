use std::cmp::Reverse;

use omg_geom::BBox2D;

use crate::track::{Observation, Track, TrackId};

/// Greedy IoU association of boxes to live tracks, without history: the
/// identification function of the paper's video consistency assertions
/// ("assign a new identifier for each box that appears and assign the
/// same identifier as it persists through the video", §4.1).
///
/// On every [`assign`](IouAssociator::assign), boxes are associated to
/// live tracks by descending IoU against each track's most recent box; a
/// box that matches no live track above `iou_threshold` starts a new
/// track. Tracks unseen for more than `max_age` frames are retired.
///
/// Association is class-agnostic on purpose: the paper's assertions are
/// precisely about objects whose *class labels* are inconsistent over
/// time, so the associator must not use the class to decide identity.
///
/// Only the live tracks are kept, contiguously in creation order, each
/// as its id, last frame and latest box; the query, candidate-pair and
/// assignment buffers are reused across frames. Track ids are issued as
/// 0, 1, 2, … in creation order. [`IouTracker`] adds the per-track
/// history on top.
#[derive(Debug, Clone)]
pub struct IouAssociator {
    iou_threshold: f64,
    max_age: usize,
    /// The tracks still eligible for association, in creation order.
    live: Vec<LiveTrack>,
    /// Number of tracks ever created, which is also the next id.
    created: usize,
    /// The latest frame any track was observed in.
    latest: Option<usize>,
    /// The live tracks' latest boxes, aligned with `live`.
    anchors: Vec<BBox2D>,
    /// The current frame's boxes.
    queries: Vec<BBox2D>,
    /// Candidate `(iou, live position, query index)` pairs.
    pairs: Vec<(f64, usize, usize)>,
    /// `free[p]` holds while live track `p` is unclaimed this frame.
    free: Vec<bool>,
    /// The live position each query was assigned to, if any.
    assigned: Vec<Option<usize>>,
    /// The ids issued for the current frame, aligned with `queries`.
    ids: Vec<TrackId>,
}

/// The initial capacity of the associator's per-frame buffers. A street
/// frame holds a few to a few dozen boxes, so most short windows never
/// grow a buffer past it; a crowded frame grows them as usual.
const FRAME_CAPACITY: usize = 16;

/// One live track: what association needs of it.
#[derive(Debug, Clone, Copy)]
struct LiveTrack {
    id: TrackId,
    last_frame: usize,
    bbox: BBox2D,
}

impl IouAssociator {
    /// Creates an associator.
    ///
    /// * `iou_threshold` — minimum IoU between a box and a track's last
    ///   box for association (typical: `0.3`–`0.5`).
    /// * `max_age` — number of consecutive unseen frames after which a
    ///   track is retired; an age of `k` lets a track survive `k` missed
    ///   frames (this is what lets flickering objects keep one identity).
    ///
    /// # Panics
    ///
    /// Panics if `iou_threshold` is not in `(0, 1]`.
    pub fn new(iou_threshold: f64, max_age: usize) -> Self {
        assert!(
            iou_threshold > 0.0 && iou_threshold <= 1.0,
            "iou threshold must be in (0, 1], got {iou_threshold}"
        );
        Self {
            iou_threshold,
            max_age,
            live: Vec::with_capacity(FRAME_CAPACITY),
            created: 0,
            latest: None,
            anchors: Vec::with_capacity(FRAME_CAPACITY),
            queries: Vec::with_capacity(FRAME_CAPACITY),
            pairs: Vec::with_capacity(FRAME_CAPACITY),
            free: Vec::with_capacity(FRAME_CAPACITY),
            assigned: Vec::with_capacity(FRAME_CAPACITY),
            ids: Vec::with_capacity(FRAME_CAPACITY),
        }
    }

    /// Associates one frame's boxes and returns the track id assigned to
    /// each, aligned with the input order.
    ///
    /// A frame's ids are distinct: each live track claims at most one
    /// box. A box that claims none starts a track with the next unissued
    /// id, so the frame's new ids are `num_tracks()`, `num_tracks() + 1`,
    /// … (as read before the call), in query order.
    ///
    /// Frames must be fed in non-decreasing order.
    ///
    /// # Panics
    ///
    /// Panics if `frame` precedes an already-processed frame while a
    /// track is live.
    pub fn assign(&mut self, frame: usize, boxes: impl IntoIterator<Item = BBox2D>) -> &[TrackId] {
        if let Some(last) = self.latest {
            assert!(
                frame >= last || self.live.is_empty(),
                "frames must be processed in order (got {frame} after {last})"
            );
        }
        let max_age = self.max_age;
        self.live
            .retain(|t| frame.saturating_sub(t.last_frame) <= max_age);
        self.queries.clear();
        self.queries.extend(boxes);
        self.anchors.clear();
        self.anchors.extend(self.live.iter().map(|t| t.bbox));

        // Candidate pairs via the spatial matcher (grid-indexed in
        // crowded frames, pairwise otherwise), matched greedily by
        // descending IoU, then ascending live position and query index.
        // Every kept pair has `iou >= iou_threshold > 0` (`new` asserts
        // the threshold, and a NaN never passes `>=`), so every IoU is a
        // positive float, and the bit patterns of positive floats order
        // like their values: the integer key gives `total_cmp`'s order
        // exactly. (live position, query index) is unique per pair, so
        // an unstable sort is exact.
        omg_geom::matchers::iou_pairs(
            &self.anchors,
            &self.queries,
            self.iou_threshold,
            &mut self.pairs,
        );
        self.pairs
            .sort_unstable_by_key(|&(iou, p, qi)| (Reverse(iou.to_bits()), p, qi));

        // A pair assigns only if its query is unassigned and its track
        // still free.
        self.free.clear();
        self.free.resize(self.live.len(), true);
        self.assigned.clear();
        self.assigned.resize(self.queries.len(), None);
        for &(_, p, qi) in &self.pairs {
            if let (Some(slot @ None), Some(free @ true)) =
                (self.assigned.get_mut(qi), self.free.get_mut(p))
            {
                *free = false;
                *slot = Some(p);
            }
        }

        if !self.queries.is_empty() {
            self.latest = Some(self.latest.map_or(frame, |last| last.max(frame)));
        }
        self.ids.clear();
        for (&bbox, assigned) in self.queries.iter().zip(&self.assigned) {
            let id = match assigned.and_then(|p| self.live.get_mut(p)) {
                Some(track) => {
                    track.last_frame = frame;
                    track.bbox = bbox;
                    track.id
                }
                None => {
                    let id = TrackId(self.created as u64);
                    self.created += 1;
                    self.live.push(LiveTrack {
                        id,
                        last_frame: frame,
                        bbox,
                    });
                    id
                }
            };
            self.ids.push(id);
        }
        &self.ids
    }

    /// Number of tracks ever created.
    pub fn num_tracks(&self) -> usize {
        self.created
    }
}

/// Greedy IoU-based multi-object tracker: an [`IouAssociator`] plus the
/// history of every track it created.
///
/// Tracks unseen for more than `max_age` frames are retired from
/// association but retained for querying. Track ids are issued as 0, 1,
/// 2, … in creation order, so tracks are stored densely: a track's id is
/// its index.
#[derive(Debug, Clone)]
pub struct IouTracker {
    associator: IouAssociator,
    /// Every track ever created, indexed by id.
    tracks: Vec<Track>,
}

impl IouTracker {
    /// Creates a tracker; the parameters are those of
    /// [`IouAssociator::new`].
    ///
    /// # Panics
    ///
    /// Panics if `iou_threshold` is not in `(0, 1]`.
    pub fn new(iou_threshold: f64, max_age: usize) -> Self {
        Self {
            associator: IouAssociator::new(iou_threshold, max_age),
            tracks: Vec::new(),
        }
    }

    /// Processes one frame of detections and returns the track id assigned
    /// to each detection, aligned with the input order.
    ///
    /// Frames must be fed in non-decreasing order.
    ///
    /// # Panics
    ///
    /// Panics if `frame` precedes an already-processed frame while a
    /// track is live.
    pub fn update(&mut self, frame: usize, detections: &[Observation]) -> Vec<TrackId> {
        let ids = self
            .associator
            .assign(frame, detections.iter().map(|d| d.bbox));
        // New ids are issued in order, one past the last stored track.
        for (det, &id) in detections.iter().zip(ids) {
            match self.tracks.get_mut(index_of(id)) {
                Some(track) => track.record(frame, *det),
                None => self.tracks.push(Track::new(id, frame, *det)),
            }
        }
        ids.to_vec()
    }

    /// All tracks ever created, in id order.
    pub fn tracks(&self) -> impl Iterator<Item = &Track> {
        self.tracks.iter()
    }

    /// The track with the given id, if it exists.
    pub fn track(&self, id: TrackId) -> Option<&Track> {
        self.tracks.get(index_of(id))
    }

    /// Number of tracks ever created.
    pub fn num_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Consumes the tracker and returns all tracks in id order.
    pub fn into_tracks(self) -> Vec<Track> {
        self.tracks
    }
}

/// The index a track with id `id` is stored at (`usize::MAX`, which no
/// track reaches, for an id too large to address).
fn index_of(id: TrackId) -> usize {
    usize::try_from(id.0).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_geom::BBox2D;

    fn obs(x: f64, y: f64) -> Observation {
        Observation {
            bbox: BBox2D::new(x, y, x + 10.0, y + 10.0).unwrap(),
            class: 0,
            score: 0.9,
        }
    }

    #[test]
    fn single_object_keeps_one_id() {
        let mut tr = IouTracker::new(0.3, 2);
        let mut ids = Vec::new();
        for f in 0..10 {
            ids.push(tr.update(f, &[obs(f as f64, 0.0)])[0]);
        }
        assert!(ids.iter().all(|&i| i == ids[0]));
        assert_eq!(tr.num_tracks(), 1);
    }

    #[test]
    fn two_separated_objects_get_distinct_ids() {
        let mut tr = IouTracker::new(0.3, 2);
        let ids = tr.update(0, &[obs(0.0, 0.0), obs(100.0, 100.0)]);
        assert_ne!(ids[0], ids[1]);
        let ids2 = tr.update(1, &[obs(1.0, 0.0), obs(101.0, 100.0)]);
        assert_eq!(ids[0], ids2[0]);
        assert_eq!(ids[1], ids2[1]);
    }

    #[test]
    fn flickering_object_survives_within_max_age() {
        let mut tr = IouTracker::new(0.3, 2);
        let a = tr.update(0, &[obs(0.0, 0.0)])[0];
        tr.update(1, &[]); // missed frame
        let b = tr.update(2, &[obs(1.0, 0.0)])[0];
        assert_eq!(a, b, "track should survive a 1-frame flicker");
        let track = tr.track(a).unwrap();
        assert_eq!(track.gap_frames(), vec![1]);
    }

    #[test]
    fn object_re_id_after_max_age() {
        let mut tr = IouTracker::new(0.3, 1);
        let a = tr.update(0, &[obs(0.0, 0.0)])[0];
        tr.update(1, &[]);
        tr.update(2, &[]);
        let b = tr.update(3, &[obs(0.0, 0.0)])[0];
        assert_ne!(a, b, "a long disappearance must start a new track");
        assert_eq!(tr.num_tracks(), 2);
    }

    #[test]
    fn greedy_matching_prefers_higher_iou() {
        let mut tr = IouTracker::new(0.1, 2);
        let ids = tr.update(0, &[obs(0.0, 0.0), obs(8.0, 0.0)]);
        // Next frame: one box exactly on the first, one shifted.
        let ids2 = tr.update(1, &[obs(0.0, 0.0), obs(8.5, 0.0)]);
        assert_eq!(ids[0], ids2[0]);
        assert_eq!(ids[1], ids2[1]);
    }

    #[test]
    fn class_changes_do_not_break_identity() {
        let mut tr = IouTracker::new(0.3, 2);
        let a = tr.update(
            0,
            &[Observation {
                bbox: BBox2D::new(0.0, 0.0, 10.0, 10.0).unwrap(),
                class: 0,
                score: 0.9,
            }],
        )[0];
        let b = tr.update(
            1,
            &[Observation {
                bbox: BBox2D::new(0.5, 0.0, 10.5, 10.0).unwrap(),
                class: 1, // class flipped: the assertion target
                score: 0.9,
            }],
        )[0];
        assert_eq!(a, b);
        assert_eq!(tr.track(a).unwrap().distinct_classes(), 2);
    }

    #[test]
    fn simultaneous_objects_never_merge() {
        let mut tr = IouTracker::new(0.3, 2);
        for f in 0..5 {
            let ids = tr.update(f, &[obs(0.0, 0.0), obs(50.0, 0.0)]);
            assert_ne!(ids[0], ids[1]);
        }
        assert_eq!(tr.num_tracks(), 2);
    }

    #[test]
    fn into_tracks_returns_everything() {
        let mut tr = IouTracker::new(0.3, 2);
        tr.update(0, &[obs(0.0, 0.0), obs(100.0, 0.0)]);
        let tracks = tr.into_tracks();
        assert_eq!(tracks.len(), 2);
    }

    #[test]
    #[should_panic(expected = "iou threshold")]
    fn zero_threshold_rejected() {
        IouTracker::new(0.0, 2);
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // Two tracks with *identical* last boxes compete for one
        // detection: the greedy matcher's total-order sort must always
        // hand it to the earlier live track, every run. (Regression test
        // for the old `partial_cmp(..).unwrap_or(Equal)` sort, whose
        // tie behavior was an accident of sort stability.)
        for _ in 0..10 {
            let mut tr = IouTracker::new(0.3, 2);
            let ids = tr.update(0, &[obs(0.0, 0.0), obs(0.0, 0.0)]);
            let ids2 = tr.update(1, &[obs(0.0, 0.0)]);
            assert_eq!(ids2[0], ids[0], "exact tie goes to the first live track");
        }
    }

    #[test]
    fn crowded_frame_matches_reference_association() {
        // A frame dense enough to clear the indexed-matcher cutoff must
        // associate identically under both backends.
        use omg_geom::matchers::{with_backend, MatchBackend};
        let frame0: Vec<Observation> = (0..140)
            .map(|i| obs(f64::from(i % 8) * 15.0, f64::from(i / 8) * 15.0))
            .collect();
        let frame1: Vec<Observation> = frame0
            .iter()
            .map(|o| Observation {
                bbox: o.bbox.translated(1.0, 0.5),
                ..*o
            })
            .collect();
        let run = || {
            let mut tr = IouTracker::new(0.3, 2);
            tr.update(0, &frame0);
            tr.update(1, &frame1)
        };
        let indexed = with_backend(MatchBackend::Indexed, run);
        let reference = with_backend(MatchBackend::Reference, run);
        assert_eq!(indexed, reference);
        assert_eq!(indexed.len(), 140);
    }
}
