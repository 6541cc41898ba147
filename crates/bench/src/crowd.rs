//! Crowded-scene benchmark plumbing: the clutter-heavy windows behind
//! `exp_throughput --crowded` and `benchmarks/BENCH_crowded.json`.
//!
//! [`omg_sim::crowd::CrowdWorld`] generates frames with an exact box
//! count; this module packages them as the [`VideoWindow`]s the video
//! assertion set consumes, in two forms: disjoint windows
//! ([`crowd_windows`]), which share no frame, and the sliding windows of
//! one stream ([`crowd_stream`] cut by [`sliding_windows`]), which share
//! each adjacent frame pair between two windows, as perfbench's crowded
//! workload does. `exp_throughput --crowded` times each disjoint
//! window's matcher calls (the center frame's `multibox` triples and
//! both adjacent frame pairs' association pairs) through
//! `omg_geom::matchers` and `omg_geom::reference` at 300 and 1,000
//! boxes per frame, both above the grid cutoff
//! (`omg_geom::matchers::INDEX_MIN`); the engine bench and the
//! crowd-frame equivalence tests build their windows here too.

use omg_domains::{VideoFrame, VideoWindow};
use omg_geom::BBox2D;
use omg_scenario::clamped_window;
use omg_sim::crowd::{CrowdConfig, CrowdWorld};

/// The boxes-per-frame ladder the crowded benchmark sweeps.
pub const CROWD_SIZES: [usize; 2] = [300, 1000];

/// Frames per crowded window (center frame in the middle).
const CROWD_WINDOW_FRAMES: usize = 3;

/// Frames of context on each side of a sliding crowded window's center.
const CROWD_WINDOW_HALF: usize = CROWD_WINDOW_FRAMES / 2;

/// Frames per second of a crowd stream.
const CROWD_FPS: f64 = 10.0;

/// Builds `n_windows` disjoint clutter-heavy windows with exactly
/// `boxes_per_frame` boxes on every frame, deterministic per seed: one
/// stream cut into consecutive chunks of `CROWD_WINDOW_FRAMES` frames,
/// each with window-local indices and times, so no two windows share a
/// frame.
pub fn crowd_windows(boxes_per_frame: usize, n_windows: usize, seed: u64) -> Vec<VideoWindow> {
    let mut world = CrowdWorld::new(CrowdConfig::clutter_heavy(boxes_per_frame), seed);
    let frames = world.steps(n_windows * CROWD_WINDOW_FRAMES);
    frames
        .chunks(CROWD_WINDOW_FRAMES)
        .map(|chunk| {
            let vf: Vec<VideoFrame> = chunk
                .iter()
                .enumerate()
                .map(|(fi, dets)| {
                    // Window-local indices/times: each window stands alone,
                    // exactly like the sliding night-street windows.
                    VideoFrame {
                        index: fi as u64,
                        time: fi as f64 / CROWD_FPS,
                        dets: dets.clone(),
                    }
                })
                .collect();
            VideoWindow::new(vf, CROWD_WINDOW_FRAMES / 2)
        })
        .collect()
}

/// One clutter-heavy stream of `n_frames` frames with exactly
/// `boxes_per_frame` boxes each, deterministic per seed, with stream
/// indices and times.
pub fn crowd_stream(boxes_per_frame: usize, n_frames: usize, seed: u64) -> Vec<VideoFrame> {
    let mut world = CrowdWorld::new(CrowdConfig::clutter_heavy(boxes_per_frame), seed);
    world
        .steps(n_frames)
        .into_iter()
        .zip(0u64..)
        .map(|(dets, index)| VideoFrame {
            index,
            time: index as f64 / CROWD_FPS,
            dets,
        })
        .collect()
}

/// The sliding windows of a frame stream, one per frame in stream
/// order: window `i` is the [`clamped_window`] of one frame on either
/// side of frame `i`, as the scoring drivers cut a crowded stream.
/// Each adjacent frame pair (`k`, `k + 1`) is in exactly two windows,
/// `k` and `k + 1`.
///
/// # Panics
///
/// Panics if the frames' times are not strictly increasing.
pub fn sliding_windows(frames: &[VideoFrame]) -> Vec<VideoWindow> {
    (0..frames.len())
        .map(|i| {
            let (window, center) = clamped_window(frames, i, CROWD_WINDOW_HALF);
            VideoWindow::new(window.to_vec(), center)
        })
        .collect()
}

/// A frame's boxes, as the matchers take them.
pub fn frame_boxes(frame: &VideoFrame) -> Vec<BBox2D> {
    frame.dets.iter().map(|d| d.bbox).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_have_exact_density() {
        let windows = crowd_windows(100, 4, 3);
        assert_eq!(windows.len(), 4);
        for w in &windows {
            assert_eq!(w.frames.len(), CROWD_WINDOW_FRAMES);
            for f in &w.frames {
                assert_eq!(f.dets.len(), 100);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(crowd_windows(50, 2, 9), crowd_windows(50, 2, 9));
        assert_ne!(crowd_windows(50, 2, 9), crowd_windows(50, 2, 10));
        assert_eq!(crowd_stream(50, 4, 9), crowd_stream(50, 4, 9));
        assert_ne!(crowd_stream(50, 4, 9), crowd_stream(50, 4, 10));
    }

    #[test]
    fn sliding_windows_share_adjacent_frames() {
        let frames = crowd_stream(40, 5, 3);
        let windows = sliding_windows(&frames);
        assert_eq!(windows.len(), 5);
        assert_eq!(windows[0].frames, frames[..2]);
        assert_eq!(windows[0].center, 0);
        for (i, w) in windows.iter().enumerate().skip(1).take(3) {
            assert_eq!(w.frames, frames[i - 1..=i + 1]);
            assert_eq!(w.center, 1);
        }
        assert_eq!(windows[4].frames, frames[3..]);
        assert_eq!(windows[4].center, 1);
    }
}
