//! Shared window preparation for the deployed assertion sets.
//!
//! Each deployed task has one expensive per-window derivation several of
//! its assertions (or its assertion plus the error analysis) need:
//!
//! | Task | Derivation | Artifact |
//! |---|---|---|
//! | Video | IoU association over the window, then the temporal pass | [`VideoPrep`] |
//! | Highway fusion | the video derivation over the primary channel | [`FusionPrep`] |
//! | AVs | LIDAR→camera box projection | `Vec<BBox2D>` |
//! | ECG | prediction-run segmentation | `ConsistencyWindow<usize>` |
//! | TV news | per-slot face grouping | `ConsistencyWindow<NewsFace>` |
//!
//! The self-contained assertions in the sibling modules re-derive these
//! on every check — the reference semantics, and what the paper's Python
//! implementations do. The [`omg_core::stream::Prepare`]rs here derive
//! each artifact **once per window**, and the `*_prepared_assertion_set`
//! constructors register prepared-path checks that consume the shared
//! artifact via [`AssertionSet::check_all_prepared`]. Both paths are
//! bit-for-bit equal (enforced by the engine's equivalence property
//! tests); only the wall-clock differs — the video set, for example,
//! drops from three tracker runs per window to one association pass.
//!
//! [`FusionPrep`]: crate::FusionPrep

use omg_core::consistency::{
    AttrValue, ConsistencyEngine, ConsistencySpec, ConsistencyWindow, Violation,
};
use omg_core::stream::Prepare;
use omg_core::{AssertionSet, Severity};
use omg_eval::ScoredBox;
use omg_geom::BBox2D;
use omg_sim::news::{NewsFace, NewsScene};
use omg_track::IouAssociator;

use crate::{agree, AvFrame, EcgWindow, VideoWindow};
use crate::{appear, ecg, flicker, multibox, news};

/// The IoU threshold of the tracker in [`crate::helpers::track_window`],
/// which the prepared path must share.
const TRACK_IOU: f64 = 0.25;
/// The maximum age of the tracker in [`crate::helpers::track_window`].
const TRACK_MAX_AGE: usize = 3;

/// Bare track ids: each output is its own identifier and carries no
/// attribute, since the prepared checks read only presence transitions.
struct TrackIdSpec;

impl ConsistencySpec for TrackIdSpec {
    type Output = u64;
    type Id = u64;

    fn id(&self, track: &u64) -> u64 {
        *track
    }

    fn attrs(&self, _track: &u64) -> Vec<(String, AttrValue)> {
        Vec::new()
    }

    fn attr_keys(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The temporal-transition violations at threshold `t` of a window given
/// as `(time, boxes)` frames. Each frame's boxes go straight to one
/// [`IouAssociator`] with [`crate::helpers::track_window`]'s parameters,
/// and the temporal pass runs over the issued track ids, so the list
/// equals, element for element, the `TemporalTransition` entries of
/// [`ConsistencyEngine::check`] over `track_window` under
/// [`crate::helpers::VideoTrackSpec`].
pub(crate) fn tracked_violations<'a>(
    frames: impl IntoIterator<Item = (f64, &'a [ScoredBox])>,
    t: f64,
) -> Vec<Violation<u64>> {
    let mut associator = IouAssociator::new(TRACK_IOU, TRACK_MAX_AGE);
    let mut ids = ConsistencyWindow::new();
    for (fi, (time, dets)) in frames.into_iter().enumerate() {
        let tracks = associator.assign(fi, dets.iter().map(|d| d.bbox));
        ids.push(time, tracks.iter().map(|id| id.0).collect());
    }
    ConsistencyEngine::new(TrackIdSpec)
        .with_temporal_threshold(t)
        .temporal_violations(&ids)
}

/// The video set's shared per-window artifact: the temporal-consistency
/// violations of the tracked window at the set's threshold. `flicker`
/// and `appear` filter *opposite* transition types out of the same
/// violation list, so sharing it runs the association and the
/// consistency engine's temporal pass once per window instead of once
/// per assertion.
#[derive(Debug, Clone)]
pub struct VideoPrep {
    /// The temporal threshold the violations were computed at. Carried
    /// so the prepared checks can reject a preparer/set threshold
    /// mismatch instead of silently diverging from the reference path.
    pub t: f64,
    /// The temporal-transition violations of the tracked window at the
    /// preparer's temporal threshold, in [`ConsistencyEngine::check`]
    /// order ([`ConsistencyEngine::temporal_violations`]). Attribute
    /// mismatches are not computed: no prepared check reads them, and
    /// the self-contained reference assertions still run the full
    /// `check`.
    pub violations: Vec<Violation<u64>>,
}

/// Prepares a [`VideoWindow`]: one [`IouAssociator`] pass over the
/// frames' boxes, then one temporal consistency pass (at threshold `t`)
/// over the issued track ids. No track history, box copy or attribute
/// is built: the prepared checks read only presence transitions.
#[derive(Debug, Clone, Copy)]
pub struct VideoPrepare {
    t: f64,
}

impl VideoPrepare {
    /// Creates the preparer for a video set built with the same temporal
    /// threshold `t` (seconds).
    pub fn new(t: f64) -> Self {
        Self { t }
    }

    /// The temporal threshold.
    pub fn threshold(&self) -> f64 {
        self.t
    }
}

impl Prepare<VideoWindow> for VideoPrepare {
    type Prepared = VideoPrep;

    fn prepare(&self, window: &VideoWindow) -> VideoPrep {
        let frames = window.frames.iter().map(|f| (f.time, f.dets.as_slice()));
        VideoPrep {
            t: self.t,
            violations: tracked_violations(frames, self.t),
        }
    }
}

/// Counts the temporal-transition violations of one kind (`gap = true`
/// for flicker, `false` for appear) in a prepared violation list.
fn transition_count(violations: &[Violation<u64>], want_gap: bool) -> usize {
    violations
        .iter()
        .filter(|v| matches!(v, Violation::TemporalTransition { gap, .. } if *gap == want_gap))
        .count()
}

/// The video assertion set with shared preparation: same assertions,
/// names, and severities as [`crate::video_assertion_set`], but `flicker`
/// and `appear` consume one [`VideoPrep`] (association + temporal pass)
/// per window instead of each re-deriving it (`multibox` needs neither
/// and keeps its plain check).
///
/// The prepared checks assert that the artifact was prepared at this
/// set's threshold — a [`VideoPrepare`] built with a different `t`
/// fails loudly on the first check instead of silently diverging from
/// the batch reference.
pub fn video_prepared_assertion_set(flicker_t: f64) -> AssertionSet<VideoWindow, VideoPrep> {
    let check_threshold = move |prep: &VideoPrep| {
        assert!(
            prep.t == flicker_t,
            "video preparation threshold {} != assertion set threshold {flicker_t}",
            prep.t
        );
    };
    let mut set = AssertionSet::new();
    set.add(multibox::multibox_assertion());
    set.add_prepared(
        flicker::flicker_assertion(flicker_t),
        move |_w: &VideoWindow, prep: &VideoPrep| {
            check_threshold(prep);
            Severity::from_count(transition_count(&prep.violations, true))
        },
    );
    set.add_prepared(
        appear::appear_assertion(flicker_t),
        move |_w: &VideoWindow, prep: &VideoPrep| {
            check_threshold(prep);
            Severity::from_count(transition_count(&prep.violations, false))
        },
    );
    set
}

/// Prepares an [`AvFrame`]: one LIDAR→camera projection pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AvPrepare;

impl Prepare<AvFrame> for AvPrepare {
    type Prepared = Vec<BBox2D>;

    fn prepare(&self, frame: &AvFrame) -> Vec<BBox2D> {
        agree::project_lidar(frame)
    }
}

/// The AV assertion set with shared LIDAR projection, mirroring
/// [`crate::av_assertion_set`].
pub fn av_prepared_assertion_set() -> AssertionSet<AvFrame, Vec<BBox2D>> {
    let mut set = AssertionSet::new();
    set.add_prepared(
        agree::agree_assertion(),
        |frame: &AvFrame, projected: &Vec<BBox2D>| agree::agree_severity(frame, projected),
    );
    set.add(multibox::multibox_av_assertion());
    set
}

/// Prepares an [`EcgWindow`]: one segmentation of the prediction run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EcgPrepare;

impl Prepare<EcgWindow> for EcgPrepare {
    type Prepared = ConsistencyWindow<usize>;

    fn prepare(&self, window: &EcgWindow) -> ConsistencyWindow<usize> {
        ecg::ecg_segments(window)
    }
}

/// The ECG assertion set with shared segmentation, mirroring
/// [`crate::ecg_assertion_set`].
pub fn ecg_prepared_assertion_set() -> AssertionSet<EcgWindow, ConsistencyWindow<usize>> {
    let mut set = AssertionSet::new();
    set.add_prepared(
        ecg::ecg_assertion(),
        |_w: &EcgWindow, segments: &ConsistencyWindow<usize>| ecg::ecg_severity(segments),
    );
    set
}

/// Prepares a [`NewsScene`]: one per-slot face grouping.
#[derive(Debug, Clone, Copy, Default)]
pub struct NewsPrepare;

impl Prepare<NewsScene> for NewsPrepare {
    type Prepared = ConsistencyWindow<NewsFace>;

    fn prepare(&self, scene: &NewsScene) -> ConsistencyWindow<NewsFace> {
        news::scene_window(scene)
    }
}

/// The news assertion set with shared scene grouping: one
/// [`news::scene_window`] per scene shared by the assertion (and, in the
/// monitoring harness, the flagged-group analysis).
pub fn news_prepared_assertion_set() -> AssertionSet<NewsScene, ConsistencyWindow<NewsFace>> {
    let mut set = AssertionSet::new();
    set.add_prepared(
        news::news_assertion(),
        |_s: &NewsScene, window: &ConsistencyWindow<NewsFace>| news::news_severity(window),
    );
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_sim::news::{NewsConfig, NewsWorld};

    #[test]
    fn prepared_sets_mirror_plain_sets() {
        assert_eq!(
            video_prepared_assertion_set(0.45).names(),
            crate::video_assertion_set(0.45).names()
        );
        assert_eq!(
            av_prepared_assertion_set().names(),
            crate::av_assertion_set().names()
        );
        assert_eq!(
            ecg_prepared_assertion_set().names(),
            crate::ecg_assertion_set().names()
        );
        assert_eq!(news_prepared_assertion_set().names(), vec!["news"]);
    }

    #[test]
    fn video_prepared_marks_tracking_consumers() {
        let set = video_prepared_assertion_set(0.45);
        let multibox = set.id_of("multibox").unwrap();
        let flicker = set.id_of("flicker").unwrap();
        let appear = set.id_of("appear").unwrap();
        assert!(!set.has_prepared(multibox), "multibox needs no tracking");
        assert!(set.has_prepared(flicker));
        assert!(set.has_prepared(appear));
    }

    #[test]
    fn news_prepared_matches_plain_on_world_scenes() {
        let world = NewsWorld::new(NewsConfig::default(), 5);
        let plain = news::news_assertion();
        let set = news_prepared_assertion_set();
        for scene in world.scenes(0..50) {
            let prep = NewsPrepare.prepare(&scene);
            let got = set.check_all_prepared(&scene, &prep);
            assert_eq!(got[0].1, omg_core::Assertion::check(&plain, &scene));
        }
    }
}
