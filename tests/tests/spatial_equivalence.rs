//! The indexed matchers (the grid for pairs, the axis sweep for
//! triples) against the O(n²) reference on crowd frames, and crowded
//! windows through the prepared monitor.
//!
//! The matchers take their indexed paths only from
//! `omg_geom::matchers::INDEX_MIN` boxes, far above the tens of boxes of
//! a street, AV or highway frame, so scoring the registered scenarios
//! does not exercise them; crowd frames do. The property suite (`crates/geom/tests/spatial_proptests.rs`)
//! checks the matchers on arbitrary scenes, and
//! `crates/track/tests/dense_oracle.rs` checks association against the
//! reference scan. This suite checks the very calls the assertions make,
//! at their thresholds, on the crowded benchmark's frames, and that
//! nothing between the matcher and the severity — tracking, windowing,
//! each thread's pair memo, monitors, thread chunking — changes a
//! crowded window's result.

use omg_bench::crowd::{crowd_windows, frame_boxes};
use omg_bench::video::FLICKER_T;
use omg_core::runtime::ThreadPool;
use omg_core::Monitor;
use omg_domains::agree::AGREE_IOU;
use omg_domains::multibox::MULTIBOX_IOU;
use omg_domains::prepared::TRACK_IOU;
use omg_domains::{video_assertion_set, video_prepared_assertion_set, VideoPrepare, VideoWindow};
use omg_geom::matchers::{self, INDEX_MIN};
use omg_geom::reference;
use omg_tests::sliding_crowd_windows;

/// Crowd frames at 300 and 1,000 boxes, every one above the index
/// cutoff: each frame's `multibox` triples, and each adjacent frame
/// pair's association pairs and agreement count, equal the reference
/// scan's. A failure lists every call that differs.
#[test]
fn crowd_frame_matchers_equal_the_reference() {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (mut differ, mut triples, mut pairs) = (Vec::new(), 0, 0);
    for size in [300, 1000] {
        for (wi, w) in crowd_windows(size, 6, 17).iter().enumerate() {
            let frames: Vec<_> = w.frames.iter().map(frame_boxes).collect();
            for (fi, (frame, boxes)) in w.frames.iter().zip(&frames).enumerate() {
                assert!(boxes.len() >= INDEX_MIN, "{size} boxes: below the cutoff");
                let classes: Vec<usize> = frame.dets.iter().map(|d| d.class).collect();
                let oracle = reference::overlap_triples(boxes, &classes, MULTIBOX_IOU);
                if matchers::overlap_triples(boxes, &classes, MULTIBOX_IOU) != oracle {
                    differ.push(format!("{size}/{wi}/{fi} overlap_triples"));
                }
                triples += oracle;
            }
            for (fi, pair) in frames.windows(2).enumerate() {
                let (a, b) = (&pair[0], &pair[1]);
                matchers::iou_pairs(a, b, TRACK_IOU, &mut got);
                reference::iou_pairs(a, b, TRACK_IOU, &mut want);
                if got != want {
                    differ.push(format!("{size}/{wi}/{fi} iou_pairs"));
                }
                if matchers::count_unmatched(a, b, AGREE_IOU)
                    != reference::count_unmatched(a, b, AGREE_IOU)
                {
                    differ.push(format!("{size}/{wi}/{fi} count_unmatched"));
                }
                pairs += want.len();
            }
        }
    }
    assert!(
        differ.is_empty(),
        "{} calls differ: {differ:?}",
        differ.len()
    );
    assert!(triples > 0 && pairs > 0, "crowd frames must overlap");
}

/// Crowded windows through the prepared monitor at the thread ladder:
/// reports and assertion database equal those of the sequential
/// self-contained monitor, whose assertions track each window
/// themselves, so the fast path may not change a single logged severity.
/// The windows are disjoint ones, and the sliding windows of one stream
/// at 300 and 1,000 boxes, whose frame pairs `process_batch` splits
/// across workers, each with its own pair memo.
#[test]
fn crowded_prepared_monitor_matches_the_self_contained_one_at_every_thread_count() {
    let sets = [
        crowd_windows(300, 6, 23),
        sliding_crowd_windows(300, 10),
        sliding_crowd_windows(1000, 7),
    ];
    for windows in &sets {
        assert_prepared_monitor_matches_the_self_contained_one(windows);
    }
}

fn assert_prepared_monitor_matches_the_self_contained_one(windows: &[VideoWindow]) {
    let mut self_contained = Monitor::with_assertions(video_assertion_set(FLICKER_T));
    let want: Vec<_> = windows.iter().map(|w| self_contained.process(w)).collect();
    for threads in [1, 2, 8] {
        let mut m = Monitor::with_preparer(
            video_prepared_assertion_set(FLICKER_T),
            VideoPrepare::new(FLICKER_T),
        );
        let reports = m.process_batch(windows, &ThreadPool::new(threads));
        assert_eq!(reports, want, "reports diverged at {threads} threads");
        assert_eq!(
            m.db(),
            self_contained.db(),
            "db diverged at {threads} threads"
        );
    }
}
