use omg_geom::BBox2D;

use crate::track::{Observation, Track, TrackId};

/// Greedy IoU-based multi-object tracker.
///
/// On every [`update`](IouTracker::update), detections are associated to
/// live tracks by descending IoU against each track's most recent box; a
/// detection that matches no live track above `iou_threshold` starts a new
/// track. Tracks unseen for more than `max_age` frames are retired (but
/// retained for querying).
///
/// Association is class-agnostic on purpose: the paper's assertions are
/// precisely about objects whose *class labels* are inconsistent over
/// time, so the tracker must not use the class to decide identity.
///
/// Track ids are issued as 0, 1, 2, … in creation order, so tracks are
/// stored densely: a track's id is its index.
#[derive(Debug, Clone)]
pub struct IouTracker {
    iou_threshold: f64,
    max_age: usize,
    /// Every track ever created, indexed by id.
    tracks: Vec<Track>,
    /// Indices of the tracks still eligible for association, ascending.
    live: Vec<usize>,
    /// The latest frame any track was observed in.
    latest: Option<usize>,
}

impl IouTracker {
    /// Creates a tracker.
    ///
    /// * `iou_threshold` — minimum IoU between a detection and a track's
    ///   last box for association (typical: `0.3`–`0.5`).
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
            tracks: Vec::new(),
            live: Vec::new(),
            latest: None,
        }
    }

    /// Processes one frame of detections and returns the track id assigned
    /// to each detection, aligned with the input order.
    ///
    /// Frames must be fed in non-decreasing order.
    ///
    /// # Panics
    ///
    /// Panics if `frame` precedes an already-processed frame.
    pub fn update(&mut self, frame: usize, detections: &[Observation]) -> Vec<TrackId> {
        if let Some(last) = self.latest {
            assert!(
                frame >= last || self.live.is_empty(),
                "frames must be processed in order (got {frame} after {last})"
            );
        }
        // Retire stale tracks first.
        let (tracks, max_age) = (&self.tracks, self.max_age);
        // PANIC: every live index addresses a track: both are pushed
        // together below, and tracks are never removed.
        self.live
            .retain(|&t| frame.saturating_sub(tracks[t].last_frame()) <= max_age);

        // Candidate (iou, live_pos, det_idx) pairs via the spatial
        // matcher (grid-indexed in crowded frames, pairwise otherwise),
        // matched greedily by descending IoU. The sort is a total order:
        // `total_cmp` on the IoU keeps it NaN-safe and deterministic,
        // with (live_pos, det_idx) breaking exact ties.
        let track_boxes: Vec<BBox2D> = self
            .live
            .iter()
            // PANIC: live indices address tracks (same invariant).
            .map(|&t| self.tracks[t].latest().bbox)
            .collect();
        let det_boxes: Vec<BBox2D> = detections.iter().map(|d| d.bbox).collect();
        let mut pairs = omg_geom::matchers::iou_pairs(&track_boxes, &det_boxes, self.iou_threshold);
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

        // `free[p]` holds live track `p` until a detection takes it; a
        // pair assigns only if its detection is unassigned and its
        // track still free.
        let mut free: Vec<Option<usize>> = self.live.iter().copied().map(Some).collect();
        let mut assigned: Vec<Option<usize>> = vec![None; detections.len()];
        for (_, p, di) in pairs {
            if let Some(slot @ None) = assigned.get_mut(di) {
                *slot = free.get_mut(p).and_then(Option::take);
            }
        }

        if !detections.is_empty() {
            self.latest = Some(self.latest.map_or(frame, |last| last.max(frame)));
        }
        detections
            .iter()
            .zip(assigned)
            .map(|(det, assigned)| {
                let t = match assigned {
                    Some(t) => {
                        if let Some(track) = self.tracks.get_mut(t) {
                            track.record(frame, *det);
                        }
                        t
                    }
                    None => {
                        let t = self.tracks.len();
                        self.tracks.push(Track::new(id_of(t), frame, *det));
                        self.live.push(t);
                        t
                    }
                };
                id_of(t)
            })
            .collect()
    }

    /// All tracks ever created, in id order.
    pub fn tracks(&self) -> impl Iterator<Item = &Track> {
        self.tracks.iter()
    }

    /// The track with the given id, if it exists.
    pub fn track(&self, id: TrackId) -> Option<&Track> {
        usize::try_from(id.0).ok().and_then(|t| self.tracks.get(t))
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

/// The id of the track stored at index `t`.
fn id_of(t: usize) -> TrackId {
    TrackId(t as u64)
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
