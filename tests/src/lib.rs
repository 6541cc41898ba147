//! Integration test support crate (tests live in `tests/tests/`).

use omg_bench::crowd::{crowd_stream, sliding_windows};
use omg_domains::VideoWindow;
use omg_geom::matchers::INDEX_MIN;

/// The sliding windows of one crowd stream of `n_frames` frames with
/// `boxes` boxes each (seed 23), cut at `window_half` 1 as the crowded
/// benchmark cuts its stream, so consecutive windows share a frame pair.
///
/// Crowd objects persist, so every seventh box is dropped from every
/// third frame (frames 1, 4, 7, …) to make flickers. Frame 5 repeats
/// frame 3's boxes bit for bit: in reverse order, window 5's last scan
/// (frames 5 and 6) is stored just before window 4 asks for frames 3
/// and 4, so a pair memo keyed by its anchors alone would serve the
/// wrong pairs. Every frame stays above the grid cutoff.
///
/// # Panics
///
/// Panics if `n_frames < 6`.
pub fn sliding_crowd_windows(boxes: usize, n_frames: usize) -> Vec<VideoWindow> {
    assert!(n_frames >= 6, "frame 5 repeats frame 3");
    let mut frames = crowd_stream(boxes, n_frames, 23);
    for frame in frames.iter_mut().skip(1).step_by(3) {
        let mut i = 0;
        frame.dets.retain(|_| {
            i += 1;
            i % 7 != 0
        });
    }
    frames[5].dets = frames[3].dets.clone();
    assert!(frames.iter().all(|f| f.dets.len() > INDEX_MIN));
    sliding_windows(&frames)
}
