//! Human-label validation (Appendix E).
//!
//! "We deployed a model assertion in which we tracked objects across
//! frames of a video using an automated method and verified that the same
//! object in different frames had the same label." The assertion can only
//! see *inconsistency*: a label error that persists across a whole track
//! is invisible, which is why the paper catches 12.5% of the errors
//! (Table 6) — and why the caught/total split is a meaningful statistic,
//! not a weakness of the implementation.

use std::cmp::Reverse;

use omg_sim::labeler::LabeledBox;
use omg_track::IouAssociator;

/// The outcome of validating a labeled clip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelCheckReport {
    /// `(frame_index, box_index)` of every label flagged as inconsistent
    /// with the rest of its track.
    pub flagged: Vec<(usize, usize)>,
    /// Number of tracks the automated association built.
    pub tracks: usize,
}

// BEGIN ASSERTION
/// Tracks labeled boxes across frames and flags labels that disagree with
/// their track's majority class.
pub fn check_labels(frames: &[Vec<LabeledBox>]) -> LabelCheckReport {
    let mut associator = IouAssociator::new(0.3, 2);
    // (frame, box) -> track id, in input order. Ids are issued 0, 1, 2,
    // …, so each track's label classes sit in a `Vec` at its id.
    let assignments: Vec<Vec<usize>> = frames
        .iter()
        .enumerate()
        .map(|(fi, labels)| {
            associator
                .assign(fi, labels.iter().map(|l| l.bbox))
                .iter()
                .map(|id| usize::try_from(id.0).unwrap_or(usize::MAX))
                .collect()
        })
        .collect();
    let mut classes = vec![Vec::new(); associator.num_tracks()];
    for (&track, label) in assignments.iter().flatten().zip(frames.iter().flatten()) {
        if let Some(track_classes) = classes.get_mut(track) {
            track_classes.push(label.class);
        }
    }
    let majorities: Vec<Option<usize>> = classes.into_iter().map(disputed_majority).collect();
    let mut flagged = Vec::new();
    for (fi, (tracks, labels)) in assignments.iter().zip(frames).enumerate() {
        for (bi, (&track, label)) in tracks.iter().zip(labels).enumerate() {
            if matches!(majorities.get(track), Some(&Some(m)) if m != label.class) {
                flagged.push((fi, bi));
            }
        }
    }
    LabelCheckReport {
        flagged,
        tracks: majorities.len(),
    }
}

/// The majority class of a track's labels, with ties broken toward the
/// smaller class (the "most common value" correction rule of §4.2), or
/// `None` when the labels hold a single class.
fn disputed_majority(mut classes: Vec<usize>) -> Option<usize> {
    classes.sort_unstable();
    let runs: Vec<&[usize]> = classes.chunk_by(|a, b| a == b).collect();
    if runs.len() < 2 {
        return None;
    }
    // Runs come in ascending class order and `min_by_key` keeps the
    // first of equal keys, so a tie goes to the smaller class.
    runs.iter()
        .min_by_key(|run| Reverse(run.len()))
        .and_then(|run| run.first().copied())
}
// END ASSERTION

impl LabelCheckReport {
    /// How many of the flagged labels are genuine errors (precision
    /// numerator for this assertion).
    pub fn caught_errors(&self, frames: &[Vec<LabeledBox>]) -> usize {
        self.flagged
            .iter()
            .filter(|&&(fi, bi)| frames[fi][bi].is_error())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_geom::BBox2D;

    fn lb(x: f64, class: usize, true_class: usize, track: u64) -> LabeledBox {
        LabeledBox {
            bbox: BBox2D::new(x, 0.0, x + 40.0, 40.0).unwrap(),
            class,
            true_class,
            track_id: track,
        }
    }

    #[test]
    fn consistent_labels_are_not_flagged() {
        let frames = vec![
            vec![lb(0.0, 0, 0, 1)],
            vec![lb(2.0, 0, 0, 1)],
            vec![lb(4.0, 0, 0, 1)],
        ];
        let report = check_labels(&frames);
        assert!(report.flagged.is_empty());
        assert_eq!(report.tracks, 1);
    }

    #[test]
    fn transient_slip_is_flagged_and_caught() {
        let frames = vec![
            vec![lb(0.0, 0, 0, 1)],
            vec![lb(2.0, 1, 0, 1)], // slip: labeled truck, actually car
            vec![lb(4.0, 0, 0, 1)],
        ];
        let report = check_labels(&frames);
        assert_eq!(report.flagged, vec![(1, 0)]);
        assert_eq!(report.caught_errors(&frames), 1);
    }

    #[test]
    fn consistent_mislabels_are_invisible() {
        // The labeler calls this car a truck in every frame: no
        // inconsistency, nothing to flag — the paper's central caveat.
        let frames = vec![
            vec![lb(0.0, 1, 0, 1)],
            vec![lb(2.0, 1, 0, 1)],
            vec![lb(4.0, 1, 0, 1)],
        ];
        let report = check_labels(&frames);
        assert!(report.flagged.is_empty());
        assert_eq!(report.caught_errors(&frames), 0);
    }

    #[test]
    fn separate_objects_do_not_cross_contaminate() {
        let frames = vec![
            vec![lb(0.0, 0, 0, 1), lb(500.0, 1, 1, 2)],
            vec![lb(2.0, 0, 0, 1), lb(502.0, 1, 1, 2)],
        ];
        let report = check_labels(&frames);
        assert!(report.flagged.is_empty());
        assert_eq!(report.tracks, 2);
    }

    #[test]
    fn majority_correct_slip_in_long_track() {
        let mut frames: Vec<Vec<LabeledBox>> =
            (0..10).map(|i| vec![lb(i as f64 * 2.0, 2, 2, 1)]).collect();
        frames[5][0].class = 0; // one slip
        let report = check_labels(&frames);
        assert_eq!(report.flagged, vec![(5, 0)]);
    }

    #[test]
    fn majority_class_votes() {
        // Two votes for class 2 against one for class 1: the narrowest
        // majority still wins, and only the class-1 label is flagged.
        let frames = vec![
            vec![lb(0.0, 2, 2, 1)],
            vec![lb(1.0, 2, 2, 1)],
            vec![lb(2.0, 1, 2, 1)],
        ];
        let report = check_labels(&frames);
        assert_eq!(report.flagged, vec![(2, 0)]);
        assert_eq!(report.tracks, 1);
    }

    #[test]
    fn majority_class_tie_breaks_to_smaller() {
        // One vote each: the tie goes to class 1, so the label 3 is the
        // one flagged.
        let frames = vec![vec![lb(0.0, 3, 3, 1)], vec![lb(2.0, 1, 1, 1)]];
        let report = check_labels(&frames);
        assert_eq!(report.flagged, vec![(0, 0)]);
        assert_eq!(report.tracks, 1);
    }

    /// Seeded night-street clips with a class slip injected into every
    /// 11th label: many tracks per clip, crossing and short-lived ones
    /// among them. The flagged positions and track counts of every clip
    /// are pinned as one FNV-1a digest, so any change in which labels
    /// the check flags, or in how the boxes are tracked, changes it.
    #[test]
    fn seeded_clips_with_injected_slips_flag_a_pinned_set() {
        use omg_sim::labeler::HumanLabeler;
        use omg_sim::traffic::{TrafficConfig, TrafficWorld};

        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut feed = |value: usize| {
            for byte in (value as u64).to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let (mut flags, mut tracks) = (0, 0);
        for clip in 0..120u64 {
            let frames = TrafficWorld::new(TrafficConfig::night_street(), 500 + clip).steps(60);
            let labeler = HumanLabeler::scale_like(clip);
            let mut labeled: Vec<Vec<LabeledBox>> =
                frames.iter().map(|f| labeler.label_frame(f)).collect();
            for label in labeled.iter_mut().flatten().skip(10).step_by(11) {
                label.class = (label.class + 1) % omg_sim::NUM_CLASSES;
            }
            let report = check_labels(&labeled);
            feed(report.tracks);
            feed(report.flagged.len());
            for &(fi, bi) in &report.flagged {
                feed(fi);
                feed(bi);
            }
            flags += report.flagged.len();
            tracks += report.tracks;
        }
        assert_eq!((flags, tracks, digest), (1461, 530, 0x17f5_ba45_3d04_ebe1));
    }
}
