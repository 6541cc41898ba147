use std::cmp::Reverse;

use omg_geom::matchers::{self, INDEX_MIN};
use omg_geom::BBox2D;

/// Opaque identifier of a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u64);

impl std::fmt::Display for TrackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "track#{}", self.0)
    }
}

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
/// as its id, last frame and latest box, and the call and box index it
/// was last placed by; the query, candidate-pair and assignment buffers
/// are reused across frames. Track ids are issued as 0, 1, 2, … in
/// creation order, so a caller that keeps something per track can keep
/// it in a `Vec` indexed by id.
///
/// A crowded step can take part of its candidate pairs from the caller
/// ([`assign_with`](IouAssociator::assign_with)): the pairs of the
/// previous call's boxes against the current ones. In a sliding stream
/// of windows, the window before has already scanned that frame pair,
/// as its last step.
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
    /// Number of completed `assign` calls, which numbers the next call.
    calls: usize,
    /// The live tracks' latest boxes, aligned with `live`, or on a split
    /// step aligned with `positions`.
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
    /// On a split step, the live positions of the previous call's
    /// tracks by box index, then those of the older tracks.
    positions: Vec<usize>,
    /// On a split step, the older tracks' candidate pairs.
    older_pairs: Vec<(f64, usize, usize)>,
}

/// The initial capacity of the associator's per-frame buffers. A street
/// frame holds a few to a few dozen boxes, so most short windows never
/// grow a buffer past it; a crowded frame grows them as usual.
const FRAME_CAPACITY: usize = 16;

/// One live track: what association needs of it, and the call and box
/// index that last placed it, which a split step reads.
#[derive(Debug, Clone, Copy)]
struct LiveTrack {
    id: TrackId,
    last_frame: usize,
    bbox: BBox2D,
    call: usize,
    box_index: usize,
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
            calls: 0,
            anchors: Vec::with_capacity(FRAME_CAPACITY),
            queries: Vec::with_capacity(FRAME_CAPACITY),
            pairs: Vec::with_capacity(FRAME_CAPACITY),
            free: Vec::with_capacity(FRAME_CAPACITY),
            assigned: Vec::with_capacity(FRAME_CAPACITY),
            ids: Vec::with_capacity(FRAME_CAPACITY),
            positions: Vec::new(),
            older_pairs: Vec::new(),
        }
    }

    /// Associates one frame's boxes and returns the track id assigned to
    /// each, aligned with the input order. This is
    /// [`assign_with`](IouAssociator::assign_with) with
    /// [`omg_geom::matchers::iou_pairs`] as the scan.
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
        self.assign_with(frame, boxes, matchers::iou_pairs)
    }

    /// [`assign`](IouAssociator::assign), taking the candidate pairs of
    /// the previous call's boxes from `scan` on a crowded step. The ids
    /// are the same whatever `scan` is, as long as it meets the contract
    /// below.
    ///
    /// `scan` has the signature of [`omg_geom::matchers::iou_pairs`] and
    /// must do what it does: replace the contents of its buffer with
    /// every `(iou, anchor index, query index)` pair whose IoU, computed
    /// as `anchor.iou(query)`, is at or above the threshold it is given,
    /// each pair once, in any order.
    ///
    /// It is called at most once per call, and only on a *split* step:
    /// when the previous call's tracks are still live and its boxes
    /// times this call's reach the grid cutoff of the matchers
    /// (`prev_len * boxes.len() >= INDEX_MIN²`, see
    /// [`INDEX_MIN`](omg_geom::matchers::INDEX_MIN)). Its anchors are
    /// then the previous call's boxes, bit for bit and in that call's
    /// order, its queries this call's boxes, and its threshold the
    /// associator's. The previous call is chosen by call, not by frame
    /// number, since frame numbers may repeat: every box of that call
    /// placed exactly one track, and those tracks share one last frame,
    /// so they are live together or retired together. The associator
    /// re-keys the pairs from box index to live position, scans the
    /// older live tracks itself, and sorts the union as a single scan's
    /// pairs are sorted. Below the cutoff a step is one scan of every
    /// live track, made with `matchers::iou_pairs`, and `scan` is not
    /// called.
    ///
    /// # Panics
    ///
    /// Panics if `frame` precedes an already-processed frame while a
    /// track is live.
    pub fn assign_with<F>(
        &mut self,
        frame: usize,
        boxes: impl IntoIterator<Item = BBox2D>,
        scan: F,
    ) -> &[TrackId]
    where
        F: FnOnce(&[BBox2D], &[BBox2D], f64, &mut Vec<(f64, usize, usize)>),
    {
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

        // Candidate pairs via the spatial matcher (grid-indexed in
        // crowded frames, pairwise otherwise), matched greedily by
        // descending IoU, then ascending live position and query index.
        // Every kept pair has `iou >= iou_threshold > 0` (`new` asserts
        // the threshold, and a NaN never passes `>=`), so every IoU is a
        // positive float, and the bit patterns of positive floats order
        // like their values: the integer key gives `total_cmp`'s order
        // exactly. (live position, query index) is unique per pair, so
        // an unstable sort is exact, and a split step's union sorts
        // into the single scan's order.
        if !self.split_scan(scan) {
            self.anchors.clear();
            self.anchors.extend(self.live.iter().map(|t| t.bbox));
            matchers::iou_pairs(
                &self.anchors,
                &self.queries,
                self.iou_threshold,
                &mut self.pairs,
            );
        }
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
        let call = self.calls;
        self.ids.clear();
        for (box_index, (&bbox, assigned)) in self.queries.iter().zip(&self.assigned).enumerate() {
            let id = match assigned.and_then(|p| self.live.get_mut(p)) {
                Some(track) => {
                    track.last_frame = frame;
                    track.bbox = bbox;
                    track.call = call;
                    track.box_index = box_index;
                    track.id
                }
                None => {
                    let id = TrackId(self.created as u64);
                    self.created += 1;
                    self.live.push(LiveTrack {
                        id,
                        last_frame: frame,
                        bbox,
                        call,
                        box_index,
                    });
                    id
                }
            };
            self.ids.push(id);
        }
        self.calls += 1;
        &self.ids
    }

    /// On a split step (see [`assign_with`](IouAssociator::assign_with)),
    /// fills `pairs` with every candidate pair of the live tracks, keyed
    /// by live position, and returns `true`: the previous call's pairs
    /// from `scan`, the older tracks' from the matcher. Otherwise
    /// returns `false` without calling `scan`.
    fn split_scan<F>(&mut self, scan: F) -> bool
    where
        F: FnOnce(&[BBox2D], &[BBox2D], f64, &mut Vec<(f64, usize, usize)>),
    {
        // `ids` still holds the previous call's ids, one per box.
        let prev_len = self.ids.len();
        if prev_len * self.queries.len() < INDEX_MIN * INDEX_MIN {
            return false;
        }
        // The previous call's tracks by box index (each box of that call
        // placed one track), then the older tracks in live order. The
        // previous call's tracks share its frame as their last frame, so
        // they are all live or all retired.
        let previous = self.calls.wrapping_sub(1);
        self.positions.clear();
        self.positions.resize(prev_len, usize::MAX);
        for (p, t) in self.live.iter().enumerate() {
            if t.call == previous {
                if let Some(at) = self.positions.get_mut(t.box_index) {
                    *at = p;
                }
            }
        }
        if self.positions.contains(&usize::MAX) {
            return false;
        }
        self.anchors.clear();
        self.anchors.extend(
            self.positions
                .iter()
                .filter_map(|&p| self.live.get(p))
                .map(|t| t.bbox),
        );
        for (p, t) in self.live.iter().enumerate() {
            if t.call != previous {
                self.positions.push(p);
                self.anchors.push(t.bbox);
            }
        }
        let Some((recent, older)) = self.anchors.split_at_checked(prev_len) else {
            return false;
        };
        scan(recent, &self.queries, self.iou_threshold, &mut self.pairs);
        matchers::iou_pairs(
            older,
            &self.queries,
            self.iou_threshold,
            &mut self.older_pairs,
        );
        // Re-key both lists from anchor index to live position.
        let positions = &self.positions;
        let position = |anchor: usize| positions.get(anchor).copied().unwrap_or(usize::MAX);
        for pair in &mut self.pairs {
            pair.1 = position(pair.1);
        }
        self.pairs.extend(
            self.older_pairs
                .iter()
                .map(|&(iou, oi, qi)| (iou, position(prev_len + oi), qi)),
        );
        true
    }

    /// Number of tracks ever created.
    pub fn num_tracks(&self) -> usize {
        self.created
    }

    /// Forgets every track and keeps the buffers, so that the next
    /// calls issue the ids a new associator with the same threshold and
    /// maximum age would, without allocating what it would allocate.
    pub fn reset(&mut self) {
        self.live.clear();
        self.created = 0;
        self.latest = None;
        self.calls = 0;
        // A split step reads the previous call's box count off `ids`.
        self.ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(x: f64, y: f64) -> BBox2D {
        BBox2D::new(x, y, x + 10.0, y + 10.0).unwrap()
    }

    #[test]
    fn single_object_keeps_one_id() {
        let mut tr = IouAssociator::new(0.3, 2);
        let mut ids = Vec::new();
        for f in 0..10 {
            ids.push(tr.assign(f, [bx(f as f64, 0.0)])[0]);
        }
        assert!(ids.iter().all(|&i| i == ids[0]));
        assert_eq!(tr.num_tracks(), 1);
    }

    #[test]
    fn two_separated_objects_get_distinct_ids() {
        let mut tr = IouAssociator::new(0.3, 2);
        let ids = tr.assign(0, [bx(0.0, 0.0), bx(100.0, 100.0)]).to_vec();
        assert_ne!(ids[0], ids[1]);
        let ids2 = tr.assign(1, [bx(1.0, 0.0), bx(101.0, 100.0)]);
        assert_eq!(ids, ids2);
    }

    #[test]
    fn flickering_object_survives_within_max_age() {
        let mut tr = IouAssociator::new(0.3, 2);
        let a = tr.assign(0, [bx(0.0, 0.0)])[0];
        tr.assign(1, []); // missed frame
        let b = tr.assign(2, [bx(1.0, 0.0)])[0];
        assert_eq!(a, b, "track should survive a 1-frame flicker");
        assert_eq!(tr.num_tracks(), 1);
    }

    #[test]
    fn object_re_id_after_max_age() {
        let mut tr = IouAssociator::new(0.3, 1);
        let a = tr.assign(0, [bx(0.0, 0.0)])[0];
        tr.assign(1, []);
        tr.assign(2, []);
        let b = tr.assign(3, [bx(0.0, 0.0)])[0];
        assert_ne!(a, b, "a long disappearance must start a new track");
        assert_eq!(tr.num_tracks(), 2);
    }

    #[test]
    fn greedy_matching_prefers_higher_iou() {
        let mut tr = IouAssociator::new(0.1, 2);
        let ids = tr.assign(0, [bx(0.0, 0.0), bx(8.0, 0.0)]).to_vec();
        // Next frame: one box exactly on the first, one shifted.
        let ids2 = tr.assign(1, [bx(0.0, 0.0), bx(8.5, 0.0)]);
        assert_eq!(ids, ids2);
    }

    #[test]
    fn simultaneous_objects_never_merge() {
        let mut tr = IouAssociator::new(0.3, 2);
        for f in 0..5 {
            let ids = tr.assign(f, [bx(0.0, 0.0), bx(50.0, 0.0)]);
            assert_ne!(ids[0], ids[1]);
        }
        assert_eq!(tr.num_tracks(), 2);
    }

    #[test]
    #[should_panic(expected = "iou threshold")]
    fn zero_threshold_rejected() {
        IouAssociator::new(0.0, 2);
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // Two tracks with *identical* last boxes compete for one box: the
        // greedy matcher's total-order sort must always hand it to the
        // earlier live track, every run.
        for _ in 0..10 {
            let mut tr = IouAssociator::new(0.3, 2);
            let first = tr.assign(0, [bx(0.0, 0.0), bx(0.0, 0.0)])[0];
            let ids2 = tr.assign(1, [bx(0.0, 0.0)]);
            assert_eq!(ids2[0], first, "exact tie goes to the first live track");
        }
    }

    #[test]
    fn display_of_track_id() {
        assert_eq!(TrackId(7).to_string(), "track#7");
    }
}
