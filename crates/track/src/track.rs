use std::collections::BTreeMap;

use omg_geom::BBox2D;

/// Opaque identifier of a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u64);

impl std::fmt::Display for TrackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "track#{}", self.0)
    }
}

/// One per-frame observation of a tracked object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Observed bounding box.
    pub bbox: BBox2D,
    /// Class label attached to the box (detector output or human label).
    pub class: usize,
    /// Confidence score attached to the box.
    pub score: f64,
}

/// The lifetime of one tracked object: its observations in frame order,
/// at most one per frame.
///
/// The first observation is held apart from the rest, so a track can
/// never be empty and the lifetime accessors need no fallible lookup.
/// A track that is recorded in frame order, as [`IouTracker`] does,
/// only ever appends.
///
/// [`IouTracker`]: crate::IouTracker
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    id: TrackId,
    /// The observation at the earliest frame.
    first: (usize, Observation),
    /// The later observations, sorted by strictly increasing frame.
    rest: Vec<(usize, Observation)>,
}

impl Track {
    /// Creates a track with a single initial observation.
    pub fn new(id: TrackId, frame: usize, obs: Observation) -> Self {
        Self {
            id,
            first: (frame, obs),
            rest: Vec::new(),
        }
    }

    /// The track's identifier.
    pub fn id(&self) -> TrackId {
        self.id
    }

    /// Records an observation at `frame`, replacing any existing one.
    pub fn record(&mut self, frame: usize, obs: Observation) {
        if frame <= self.first.0 {
            let old = std::mem::replace(&mut self.first, (frame, obs));
            if old.0 != frame {
                self.rest.insert(0, old);
            }
            return;
        }
        let at = self.rest.partition_point(|&(f, _)| f < frame);
        match self.rest.get_mut(at) {
            Some(slot) if slot.0 == frame => slot.1 = obs,
            _ => self.rest.insert(at, (frame, obs)),
        }
    }

    /// The most recent `(frame, observation)` pair.
    fn last(&self) -> &(usize, Observation) {
        self.rest.last().unwrap_or(&self.first)
    }

    /// First frame the object was observed in.
    pub fn first_frame(&self) -> usize {
        self.first.0
    }

    /// Last frame the object was observed in.
    pub fn last_frame(&self) -> usize {
        self.last().0
    }

    /// Number of frames with observations.
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Tracks always hold at least one observation, so this is always
    /// `false`; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Observation at `frame`, if any.
    pub fn at(&self, frame: usize) -> Option<&Observation> {
        if frame == self.first.0 {
            return Some(&self.first.1);
        }
        let at = self.rest.binary_search_by_key(&frame, |&(f, _)| f).ok()?;
        self.rest.get(at).map(|(_, o)| o)
    }

    /// Every `(frame, observation)` pair in frame order.
    fn observations(&self) -> impl Iterator<Item = &(usize, Observation)> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Iterator over `(frame, observation)` in frame order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Observation)> {
        self.observations().map(|(f, o)| (*f, o))
    }

    /// The most recent observation.
    pub fn latest(&self) -> &Observation {
        &self.last().1
    }

    /// Frame indices strictly inside the track's lifetime with no
    /// observation — the "flickered-out" frames.
    pub fn gap_frames(&self) -> Vec<usize> {
        let mut gaps = Vec::new();
        let mut prev = self.first.0;
        for &(f, _) in &self.rest {
            gaps.extend(prev + 1..f);
            prev = f;
        }
        gaps
    }

    /// Majority class over all observations (ties broken toward the
    /// smaller class index). This is the "most common value" correction
    /// rule of §4.2.
    pub fn majority_class(&self) -> usize {
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for (_, obs) in self.observations() {
            *counts.entry(obs.class).or_insert(0) += 1;
        }
        // Classes arrive in ascending order and only a strictly larger
        // count replaces the best, so ties stay on the smaller class.
        counts
            .into_iter()
            .fold((self.first.1.class, 0), |best, (c, n)| {
                if n > best.1 {
                    (c, n)
                } else {
                    best
                }
            })
            .0
    }

    /// Number of distinct classes observed.
    pub fn distinct_classes(&self) -> usize {
        let mut classes: Vec<usize> = self.observations().map(|(_, o)| o.class).collect();
        classes.sort_unstable();
        classes.dedup();
        classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(x: f64, class: usize) -> Observation {
        Observation {
            bbox: BBox2D::new(x, 0.0, x + 10.0, 10.0).unwrap(),
            class,
            score: 0.9,
        }
    }

    #[test]
    fn lifetime_accessors() {
        let mut t = Track::new(TrackId(1), 5, obs(0.0, 0));
        t.record(9, obs(4.0, 0));
        t.record(7, obs(2.0, 0));
        assert_eq!(t.first_frame(), 5);
        assert_eq!(t.last_frame(), 9);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(t.at(7).is_some());
        assert!(t.at(6).is_none());
        assert_eq!(t.latest().bbox.x1(), 4.0);
    }

    #[test]
    fn gap_frames_found() {
        let mut t = Track::new(TrackId(1), 0, obs(0.0, 0));
        t.record(1, obs(1.0, 0));
        t.record(4, obs(4.0, 0));
        t.record(5, obs(5.0, 0));
        assert_eq!(t.gap_frames(), vec![2, 3]);
    }

    #[test]
    fn no_gaps_for_contiguous_track() {
        let mut t = Track::new(TrackId(1), 0, obs(0.0, 0));
        t.record(1, obs(1.0, 0));
        t.record(2, obs(2.0, 0));
        assert!(t.gap_frames().is_empty());
    }

    #[test]
    fn majority_class_votes() {
        let mut t = Track::new(TrackId(1), 0, obs(0.0, 2));
        t.record(1, obs(1.0, 2));
        t.record(2, obs(2.0, 1));
        assert_eq!(t.majority_class(), 2);
        assert_eq!(t.distinct_classes(), 2);
    }

    #[test]
    fn majority_class_tie_breaks_to_smaller() {
        let mut t = Track::new(TrackId(1), 0, obs(0.0, 3));
        t.record(1, obs(1.0, 1));
        assert_eq!(t.majority_class(), 1);
    }

    #[test]
    fn iter_in_frame_order() {
        let mut t = Track::new(TrackId(1), 3, obs(3.0, 0));
        t.record(1, obs(1.0, 0));
        t.record(2, obs(2.0, 0));
        let frames: Vec<usize> = t.iter().map(|(f, _)| f).collect();
        assert_eq!(frames, vec![1, 2, 3]);
    }

    #[test]
    fn display_of_track_id() {
        assert_eq!(TrackId(7).to_string(), "track#7");
    }
}
