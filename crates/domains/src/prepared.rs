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
use omg_core::sync::Mutex;
use omg_core::{AssertionSet, Severity};
use omg_eval::ScoredBox;
use omg_geom::{matchers, BBox2D};
use omg_sim::news::{NewsFace, NewsScene};
use omg_track::IouAssociator;

use crate::{agree, AvFrame, EcgWindow, VideoWindow};
use crate::{appear, ecg, flicker, multibox, news};

/// The IoU threshold of the video association: of the associator in
/// [`crate::helpers::track_window`], and of the one the prepared path
/// runs in its place.
pub const TRACK_IOU: f64 = 0.25;
/// The maximum age of the video association, shared the same way as
/// [`TRACK_IOU`].
pub(crate) const TRACK_MAX_AGE: usize = 3;
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
/// [`crate::helpers::track_window`]'s parameters, and the associator
/// takes the pairs of a crowded step's previous frame from `memo`. The
/// associator issues ids 0, 1, 2, … in creation order and never one id
/// twice in a frame, so each track's current present run is kept at its
/// id, and a new id is always one past the last. A run that touches
/// neither window edge counts when it is shorter than `t`, by the
/// comparison [`ConsistencyEngine::check`] makes: an absent run as a
/// gap, a present run as a blip. The counts therefore equal the
/// per-kind counts of the `TemporalTransition` entries of `check` over
/// `track_window` under [`crate::helpers::VideoTrackSpec`].
///
/// [`ConsistencyEngine::check`]: omg_core::consistency::ConsistencyEngine::check
pub(crate) fn count_short_presence_runs<'a>(
    frames: impl IntoIterator<Item = (f64, &'a [ScoredBox])>,
    t: f64,
    memo: &PairMemo,
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
        let boxes = dets.iter().map(|d| d.bbox);
        let ids =
            associator.assign_with(fi, boxes, |a, q, thr, out| memo.iou_pairs(a, q, thr, out));
        for id in ids {
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

/// A one-slot memo of [`matchers::iou_pairs`], shared by every window
/// and worker of one preparer.
///
/// A window associates each adjacent frame pair it holds, so at
/// `window_half` 1 two consecutive windows scan the same pair: window
/// `c` scans (frame `c`, frame `c + 1`) last and window `c + 1` first.
/// The slot keeps the last scan's two box lists, threshold and pairs;
/// a lookup whose key equals them bit for bit (`to_bits` on every
/// coordinate and on the threshold, so `-0.0` and `0.0` differ) copies
/// the stored pairs, and any other lookup scans and refills the slot,
/// reusing its buffers. The served list is therefore the scan's
/// whether the lookup hits or misses. The lock is held only to compare
/// or copy, never while scanning. A poisoned lock is bypassed, and the
/// lookup scans as if the slot were empty: a refill cut short by a
/// panic may have left a new key beside the old pairs, so a poisoned
/// slot is never read again.
#[derive(Default)]
pub(crate) struct PairMemo {
    slot: Mutex<PairSlot>,
}

/// The memo's one slot: the key and pairs of the last scan it stored.
/// The empty default is the scan of two empty lists at `0.0`, which is
/// empty.
#[derive(Default)]
struct PairSlot {
    /// The threshold's bits.
    threshold: u64,
    anchors: Vec<BBox2D>,
    queries: Vec<BBox2D>,
    pairs: Vec<(f64, usize, usize)>,
}

impl PairSlot {
    /// Whether the slot holds the scan of exactly these inputs.
    fn holds(&self, anchors: &[BBox2D], queries: &[BBox2D], threshold: f64) -> bool {
        self.threshold == threshold.to_bits()
            && same_bits(&self.anchors, anchors)
            && same_bits(&self.queries, queries)
    }
}

/// Whether two box lists are equal coordinate for coordinate, bit for
/// bit.
fn same_bits(a: &[BBox2D], b: &[BBox2D]) -> bool {
    let bits = |b: &BBox2D| [b.x1(), b.y1(), b.x2(), b.y2()].map(f64::to_bits);
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| bits(a) == bits(b))
}

impl PairMemo {
    /// [`matchers::iou_pairs`] through the slot: the stored pairs on a
    /// hit, and on a miss a scan made outside the lock, which then
    /// refills the slot.
    pub(crate) fn iou_pairs(
        &self,
        anchors: &[BBox2D],
        queries: &[BBox2D],
        threshold: f64,
        pairs: &mut Vec<(f64, usize, usize)>,
    ) {
        if !self.hit(anchors, queries, threshold, pairs) {
            matchers::iou_pairs(anchors, queries, threshold, pairs);
            self.refill(anchors, queries, threshold, pairs);
        }
    }

    /// Whether the slot holds the scan of exactly these inputs; if so,
    /// its pairs replace the contents of `pairs`.
    fn hit(
        &self,
        anchors: &[BBox2D],
        queries: &[BBox2D],
        threshold: f64,
        pairs: &mut Vec<(f64, usize, usize)>,
    ) -> bool {
        let Ok(slot) = self.slot.lock() else {
            return false;
        };
        let hit = slot.holds(anchors, queries, threshold);
        if hit {
            pairs.clear();
            pairs.extend_from_slice(&slot.pairs);
        }
        hit
    }

    /// Stores a scan of these inputs in the slot, in its own buffers.
    fn refill(
        &self,
        anchors: &[BBox2D],
        queries: &[BBox2D],
        threshold: f64,
        pairs: &[(f64, usize, usize)],
    ) {
        if let Ok(mut slot) = self.slot.lock() {
            let slot = &mut *slot;
            slot.threshold = threshold.to_bits();
            for (stored, given) in [(&mut slot.anchors, anchors), (&mut slot.queries, queries)] {
                stored.clear();
                stored.extend_from_slice(given);
            }
            slot.pairs.clear();
            slot.pairs.extend_from_slice(pairs);
        }
    }
}

impl std::fmt::Debug for PairMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairMemo").finish_non_exhaustive()
    }
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
///
/// The preparer owns one memo of adjacent-frame candidate pairs, shared
/// by every window it prepares and every worker that calls it. On a
/// crowded step (at least
/// [`INDEX_MIN`](omg_geom::matchers::INDEX_MIN)² candidate pairs) the
/// associator takes the previous frame's pairs from it
/// ([`IouAssociator::assign_with`]), so a sliding stream scans each
/// crowded frame pair once instead of in both windows that hold it.
/// Street frames never reach the memo. The memo's key is both box lists
/// and the threshold, bit for bit, so the counts are the same whether
/// it hits or misses, in any window order and at any worker count.
#[derive(Debug)]
pub struct VideoPrepare {
    t: f64,
    memo: PairMemo,
}

impl VideoPrepare {
    /// Creates the preparer for a video set built with the same temporal
    /// threshold `t` (seconds).
    pub fn new(t: f64) -> Self {
        Self {
            t,
            memo: PairMemo::default(),
        }
    }
}

impl Prepare<VideoWindow> for VideoPrepare {
    type Prepared = VideoPrep;

    fn prepare(&self, window: &VideoWindow) -> VideoPrep {
        let frames = window.frames.iter().map(|f| (f.time, f.dets.as_slice()));
        count_short_presence_runs(frames, self.t, &self.memo)
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

    /// 150 boxes on a 600-pixel square (enough pairs for the grid),
    /// deterministic per seed, the first at the origin.
    fn scene(seed: u64) -> Vec<BBox2D> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 600.0
        };
        let mut boxes = vec![BBox2D::new(0.0, 0.0, 20.0, 20.0).unwrap()];
        boxes.extend((1..150).map(|_| {
            let (x, y) = (next(), next());
            BBox2D::new(x, y, x + 20.0 + next() / 20.0, y + 20.0).unwrap()
        }));
        boxes
    }

    /// Looks `(anchors, queries, threshold)` up in `memo`, asserts the
    /// served list is the scan's, and returns whether the lookup hit.
    fn serve(memo: &PairMemo, anchors: &[BBox2D], queries: &[BBox2D], threshold: f64) -> bool {
        let mut want = Vec::new();
        matchers::iou_pairs(anchors, queries, threshold, &mut want);
        assert!(!want.is_empty(), "the scenes must overlap");
        let mut probe = Vec::new();
        let hit = memo.hit(anchors, queries, threshold, &mut probe);
        if hit {
            assert_eq!(probe, want, "the slot holds another scan");
        }
        // A stale entry, which a served list must not keep.
        let mut served = vec![(f64::NAN, usize::MAX, usize::MAX)];
        memo.iou_pairs(anchors, queries, threshold, &mut served);
        assert_eq!(served, want);
        hit
    }

    #[test]
    fn pair_memo_serves_the_scan_whether_it_hits_or_misses() {
        let (a, b, c) = (scene(1), scene(2), scene(3));
        // B' differs from B only in the sign of one zero coordinate:
        // equal as floats, different bits.
        let mut b_signed = b.clone();
        b_signed[0] = BBox2D::new(-0.0, 0.0, 20.0, 20.0).unwrap();
        assert_eq!(b_signed, b);
        let b_reordered: Vec<BBox2D> = b.iter().rev().copied().collect();
        let (a, b, c) = (a.as_slice(), b.as_slice(), c.as_slice());
        let t = TRACK_IOU;
        type Lookup<'a> = (&'a [BBox2D], &'a [BBox2D], f64, bool);
        let sequences: [(&str, Vec<Lookup>); 6] = [
            ("repeat", vec![(a, b, t, false), (a, b, t, true)]),
            (
                "slide and back",
                vec![(a, b, t, false), (b, c, t, false), (a, b, t, false)],
            ),
            ("other queries", vec![(a, b, t, false), (a, c, t, false)]),
            (
                "signed zero",
                vec![(a, b, t, false), (a, &b_signed, t, false), (a, b, t, false)],
            ),
            (
                "reordered",
                vec![(a, b, t, false), (a, &b_reordered, t, false)],
            ),
            (
                "threshold",
                vec![(a, b, t, false), (a, b, 0.1, false), (a, b, 0.1, true)],
            ),
        ];
        for (name, lookups) in sequences {
            let memo = PairMemo::default();
            for (i, &(anchors, queries, threshold, hit)) in lookups.iter().enumerate() {
                assert_eq!(
                    serve(&memo, anchors, queries, threshold),
                    hit,
                    "{name}: lookup {i}"
                );
            }
        }
    }

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
