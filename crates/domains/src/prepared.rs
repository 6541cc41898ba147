//! Shared window preparation for the deployed assertion sets.
//!
//! Each deployed task has one expensive per-window derivation several of
//! its assertions (or its assertion plus the error analysis) need:
//!
//! | Task | Derivation | Artifact |
//! |---|---|---|
//! | Video | IoU association over the window, counting its short presence runs | [`VideoPrep`] |
//! | Highway fusion | the video derivation over the primary channel | [`VideoPrep`] |
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

use omg_core::consistency::ConsistencyWindow;
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
pub const TRACK_IOU: f64 = 0.25;
/// The maximum age of the tracker in [`crate::helpers::track_window`].
const TRACK_MAX_AGE: usize = 3;
/// The initial capacity of a window's run list, one entry per track. A
/// street window holds a few tracks per frame, so most windows allocate
/// the list once; a crowded window grows it as usual.
const TRACK_CAPACITY: usize = 16;

/// One track's current present run: the frames it started at and was
/// last seen at, the time of its start frame, and the time of the frame
/// after its last one. That time is infinite while the run reaches the
/// window's last frame, so a run touching the right edge is never
/// shorter than `t`.
#[derive(Clone, Copy)]
struct PresenceRun {
    start: usize,
    last: usize,
    start_time: f64,
    after_time: f64,
}

impl PresenceRun {
    /// Whether the run is a blip: it touches neither window edge and
    /// lasts less than `t`.
    fn is_short_blip(&self, t: f64) -> bool {
        self.start > 0 && self.after_time - self.start_time < t
    }
}

/// Counts the short interior presence runs of a window given as `(time,
/// boxes)` frames, at threshold `t`.
///
/// Each frame's boxes go to one [`IouAssociator`] with
/// [`crate::helpers::track_window`]'s parameters. The associator issues
/// ids 0, 1, 2, … in creation order and never one id twice in a frame,
/// so each track's current present run is kept at its id, and a new id
/// is always one past the last. A run that touches neither window edge
/// counts when it is shorter than `t`, by the comparison
/// [`ConsistencyEngine::check`] makes: an absent run as a gap, a present
/// run as a blip. The counts therefore equal the per-kind counts of the
/// `TemporalTransition` entries of `check` over `track_window` under
/// [`crate::helpers::VideoTrackSpec`].
///
/// [`ConsistencyEngine::check`]: omg_core::consistency::ConsistencyEngine::check
pub(crate) fn count_short_presence_runs<'a>(
    frames: impl IntoIterator<Item = (f64, &'a [ScoredBox])>,
    t: f64,
) -> VideoPrep {
    let mut associator = IouAssociator::new(TRACK_IOU, TRACK_MAX_AGE);
    let mut runs: Vec<PresenceRun> = Vec::with_capacity(TRACK_CAPACITY);
    let mut prep = VideoPrep {
        t,
        gaps: 0,
        blips: 0,
    };
    let mut frames = frames.into_iter().enumerate().peekable();
    while let Some((fi, (time, dets))) = frames.next() {
        let after_time = frames
            .peek()
            .map_or(f64::INFINITY, |&(_, (next_time, _))| next_time);
        let seen = PresenceRun {
            start: fi,
            last: fi,
            start_time: time,
            after_time,
        };
        for id in associator.assign(fi, dets.iter().map(|d| d.bbox)) {
            match runs.get_mut(usize::try_from(id.0).unwrap_or(usize::MAX)) {
                Some(current) if current.last + 1 == fi => {
                    current.last = fi;
                    current.after_time = after_time;
                }
                Some(current) => {
                    // Back after the absent run [last + 1, fi - 1], which
                    // closed the present run [start, last].
                    prep.blips += usize::from(current.is_short_blip(t));
                    prep.gaps += usize::from(time - current.after_time < t);
                    *current = seen;
                }
                None => runs.push(seen),
            }
        }
    }
    prep.blips += runs
        .iter()
        .filter(|current| current.is_short_blip(t))
        .count();
    prep
}

/// The video set's shared per-window artifact, which the fusion set
/// shares too: how many short presence runs of each kind the tracked
/// window has at the set's threshold. `flicker` (and `fusion-flicker`)
/// reads the gaps and `appear` the blips, so one association pass per
/// window serves every tracked assertion.
#[derive(Debug, Clone, Copy)]
pub struct VideoPrep {
    /// The temporal threshold the runs were counted at. Carried so the
    /// prepared checks can reject a preparer/set threshold mismatch
    /// instead of silently diverging from the reference path.
    pub t: f64,
    /// Tracks absent for less than `t` between two present runs: the
    /// gap-type `TemporalTransition` entries of the reference
    /// [`ConsistencyEngine::check`] over the tracked window.
    ///
    /// [`ConsistencyEngine::check`]: omg_core::consistency::ConsistencyEngine::check
    pub gaps: usize,
    /// Tracks present for less than `t` between two absent runs: the
    /// blip-type (`gap: false`) entries of the same check.
    pub blips: usize,
}

/// Prepares a [`VideoWindow`]: one [`IouAssociator`] pass over the
/// frames' boxes that counts the short presence runs straight off the
/// issued track ids. No track history, box copy, id window or violation
/// list is built: the prepared checks read only the two counts.
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
}

impl Prepare<VideoWindow> for VideoPrepare {
    type Prepared = VideoPrep;

    fn prepare(&self, window: &VideoWindow) -> VideoPrep {
        let frames = window.frames.iter().map(|f| (f.time, f.dets.as_slice()));
        count_short_presence_runs(frames, self.t)
    }
}

/// The video assertion set with shared preparation: same assertions,
/// names, and severities as [`crate::video_assertion_set`], but `flicker`
/// and `appear` read one [`VideoPrep`] (one association pass) per window
/// instead of each re-deriving it (`multibox` needs neither and keeps
/// its plain check).
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
            Severity::from_count(prep.gaps)
        },
    );
    set.add_prepared(
        appear::appear_assertion(flicker_t),
        move |_w: &VideoWindow, prep: &VideoPrep| {
            check_threshold(prep);
            Severity::from_count(prep.blips)
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
