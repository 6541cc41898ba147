//! Crowded-scene benchmark plumbing: the clutter-heavy windows behind
//! `exp_throughput --crowded` and `benchmarks/BENCH_crowded.json`.
//!
//! [`omg_sim::crowd::CrowdWorld`] generates frames with an exact box
//! count; this module packages them as the [`VideoWindow`]s the video
//! assertion set consumes. `exp_throughput --crowded` times each
//! window's matcher calls (the center frame's `multibox` triples and
//! both adjacent frame pairs' association pairs) through
//! `omg_geom::matchers` and `omg_geom::reference` at 300 and 1,000
//! boxes per frame, both above the grid cutoff
//! (`omg_geom::matchers::INDEX_MIN`); the engine bench and the
//! crowd-frame equivalence tests build their windows here too.

use omg_domains::{VideoFrame, VideoWindow};
use omg_geom::BBox2D;
use omg_sim::crowd::{CrowdConfig, CrowdWorld};

/// The boxes-per-frame ladder the crowded benchmark sweeps.
pub const CROWD_SIZES: [usize; 2] = [300, 1000];

/// Frames per crowded window (center frame in the middle).
pub const CROWD_WINDOW_FRAMES: usize = 3;

/// Builds `n_windows` consecutive clutter-heavy windows with exactly
/// `boxes_per_frame` boxes on every frame, deterministic per seed.
pub fn crowd_windows(boxes_per_frame: usize, n_windows: usize, seed: u64) -> Vec<VideoWindow> {
    let mut world = CrowdWorld::new(CrowdConfig::clutter_heavy(boxes_per_frame), seed);
    let frames = world.steps(n_windows * CROWD_WINDOW_FRAMES);
    let fps = 10.0;
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
                        time: fi as f64 / fps,
                        dets: dets.clone(),
                    }
                })
                .collect();
            VideoWindow::new(vf, CROWD_WINDOW_FRAMES / 2)
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
    }
}
