//! Table 3: precision of the deployed assertions on 50 sampled triggers.
//!
//! For each assertion we sample 50 flagged samples and manually check —
//! here: check against simulator ground truth — "whether that data point
//! had an incorrect output from the ML model" (§5.2). For consistency
//! assertions the paper reports two precisions: counting errors in the
//! identification function *and* the model outputs (an identifier mistake
//! still means the flag surfaced an error), and counting model-output
//! errors only.

use omg_core::runtime::ThreadPool;
use omg_core::AssertionSet;
use omg_domains::helpers::track_window;
use omg_domains::{av_assertion_set, video_assertion_set, VideoWindow};
use omg_eval::stats::Proportion;
use omg_eval::table::{Align, Table};
use omg_sim::detector::{Detection, Provenance};
use omg_sim::traffic::GtFrame;

use omg_scenario::{score_scenario, Scenario};

use crate::video::{detect_all, pretrained_detector, window_at, VideoScenario, FLICKER_T};
use crate::{avx, ecgx, newsx};

/// Takes up to `k` evenly spaced elements.
fn sample_up_to<T: Copy>(xs: &[T], k: usize) -> Vec<T> {
    if xs.len() <= k {
        return xs.to_vec();
    }
    (0..k).map(|i| xs[i * xs.len() / k]).collect()
}

/// Whether any *model output* in the window is wrong: an erroneous
/// detection, or a ground-truth object missed at an interior frame while
/// detected on both neighbours (a flicker miss).
fn window_has_output_error(frames: &[GtFrame], dets: &[Vec<Detection>], center: usize) -> bool {
    let lo = center.saturating_sub(crate::video::WINDOW_HALF);
    let hi = (center + crate::video::WINDOW_HALF + 1).min(frames.len());
    for f in lo..hi {
        if dets[f].iter().any(Detection::is_error) {
            return true;
        }
        if f > 0 && f + 1 < frames.len() {
            let detected = |fi: usize, track: u64| {
                dets[fi].iter().any(|d| {
                    matches!(d.provenance, Provenance::Object { track_id, .. } if track_id == track)
                })
            };
            for s in frames[f].signals.iter().filter(|s| !s.is_clutter()) {
                if !detected(f, s.track_id)
                    && detected(f - 1, s.track_id)
                    && detected(f + 1, s.track_id)
                {
                    return true;
                }
            }
        }
    }
    false
}

/// Whether the tracker's identification made a mistake in the window: a
/// tracker track whose observations come from more than one underlying
/// provenance source.
fn window_has_identifier_error(frames: &[GtFrame], dets: &[Vec<Detection>], center: usize) -> bool {
    let window = window_at(frames, dets, center);
    let tracked = track_window(&window);
    let lo = center.saturating_sub(crate::video::WINDOW_HALF);
    // Map tracker track -> set of provenance track ids.
    let mut sources: std::collections::HashMap<u64, Vec<u64>> = Default::default();
    for ti in 0..tracked.len() {
        for (oi, tb) in tracked.outputs_at(ti).iter().enumerate() {
            let det = &dets[lo + ti][oi];
            sources.entry(tb.track).or_default().push(det.track_id());
        }
    }
    sources.values_mut().any(|v| {
        v.sort_unstable();
        v.dedup();
        v.len() > 1
    })
}

struct Row {
    assertion: &'static str,
    consistency: bool,
    id_and_output: Option<Proportion>,
    output_only: Proportion,
}

fn video_rows(seed: u64) -> Vec<Row> {
    let scenario = VideoScenario::night_street(seed, 900, 10);
    let detector = pretrained_detector(1);
    let dets = detect_all(&detector, &scenario.pool_frames);
    let set: AssertionSet<VideoWindow> = video_assertion_set(FLICKER_T);
    // Flagged window centers per assertion.
    let mut flagged: Vec<Vec<usize>> = vec![Vec::new(); set.len()];
    for center in 0..scenario.pool_frames.len() {
        let window = window_at(&scenario.pool_frames, &dets, center);
        for (aid, sev) in set.check_all(&window) {
            if sev.fired() {
                flagged[aid.0].push(center);
            }
        }
    }
    let names = ["multibox", "flicker", "appear"];
    let consistency = [false, true, true];
    names
        .iter()
        .zip(consistency)
        .enumerate()
        .map(|(m, (&assertion, consistency))| {
            let sampled = sample_up_to(&flagged[m], 50);
            let output_only = omg_eval::stats::proportion(&sampled, |&c| {
                window_has_output_error(&scenario.pool_frames, &dets, c)
            });
            let id_and_output = consistency.then(|| {
                omg_eval::stats::proportion(&sampled, |&c| {
                    window_has_output_error(&scenario.pool_frames, &dets, c)
                        || window_has_identifier_error(&scenario.pool_frames, &dets, c)
                })
            });
            Row {
                assertion,
                consistency,
                id_and_output,
                output_only,
            }
        })
        .collect()
}

fn av_agree_row(seed: u64) -> Row {
    let scenario = avx::AvScenario::new(seed, 25, 1);
    let detector = avx::pretrained_camera(1);
    let dets = avx::detect_all(&detector, &scenario.pool);
    let set = av_assertion_set();
    let mut flagged = Vec::new();
    for (i, (sample, d)) in scenario.pool.iter().zip(&dets).enumerate() {
        let frame = avx::av_frame(sample, d);
        let outcomes = set.check_all(&frame);
        if outcomes[0].1.fired() {
            flagged.push(i);
        }
    }
    let sampled = sample_up_to(&flagged, 50);
    let output_only = omg_eval::stats::proportion(&sampled, |&i| {
        let sample = &scenario.pool[i];
        let d = &dets[i];
        // A real model error: an erroneous camera detection, a camera
        // miss of a ground-truth vehicle, or a LIDAR ghost.
        let camera_error = d.iter().any(Detection::is_error);
        let detected_tracks: Vec<u64> = d
            .iter()
            .filter_map(|x| match x.provenance {
                Provenance::Object { track_id, .. } => Some(track_id),
                _ => None,
            })
            .collect();
        let camera_miss = sample
            .signals
            .iter()
            .filter(|s| !s.is_clutter())
            .any(|s| !detected_tracks.contains(&s.track_id));
        let lidar_ghost = sample.lidar.iter().any(|l| l.source_track.is_none());
        camera_error || camera_miss || lidar_ghost
    });
    Row {
        assertion: "agree",
        consistency: false,
        id_and_output: None,
        output_only,
    }
}

fn ecg_row(seed: u64, pool: &ThreadPool) -> Row {
    let scenario = ecgx::EcgScenario::standard(seed);
    let classifier = ecgx::pretrained_classifier(&scenario, 1);
    let items = scenario.run_model(&classifier);
    let (sev, _) = score_scenario(&scenario, &scenario.assertion_set(), &items, pool);
    let flagged: Vec<usize> = (0..scenario.pool.len())
        .filter(|&i| sev[i][0] > 0.0)
        .collect();
    let sampled = sample_up_to(&flagged, 50);
    let preds: Vec<usize> = items.iter().map(|it| it.pred).collect();
    let output_only = omg_eval::stats::proportion(&sampled, |&i| {
        // Any prediction in the assertion's context is wrong. True
        // rhythms dwell >= 40 s, so any A->B->A inside 30 s must include
        // an error.
        let lo = i.saturating_sub(ecgx::ECG_CONTEXT);
        let hi = (i + ecgx::ECG_CONTEXT + 1).min(scenario.pool.len());
        (lo..hi).any(|j| preds[j] != scenario.pool[j].true_class)
    });
    Row {
        assertion: "ecg",
        consistency: true,
        id_and_output: Some(output_only),
        output_only,
    }
}

fn news_row(seed: u64, pool: &ThreadPool) -> Row {
    let scenario = newsx::NewsScenario::standard(seed);
    let flagged = newsx::flagged_groups(&scenario, pool);
    let sampled: Vec<bool> = flagged.iter().map(|g| g.is_real_error).collect();
    let sampled = sample_up_to(&sampled, 50);
    let p = omg_eval::stats::proportion(&sampled, |&e| e);
    Row {
        assertion: "news",
        consistency: true,
        id_and_output: Some(p),
        output_only: p,
    }
}

/// Renders Table 3, scoring the news and ECG rows on `pool`.
pub fn run(seed: u64, pool: &ThreadPool) -> String {
    let mut rows = vec![news_row(seed, pool), ecg_row(seed, pool)];
    let video = video_rows(seed);
    // Consistency assertions first (news, ecg, flicker, appear), then
    // custom (multibox, agree) — the paper's layout.
    rows.extend(video.iter().filter(|r| r.consistency).map(copy_row));
    rows.extend(video.iter().filter(|r| !r.consistency).map(copy_row));
    rows.push(av_agree_row(seed));

    let mut t = Table::new(vec![
        "Assertion",
        "Precision (identifier and output)",
        "Precision (model output only)",
        "Sampled",
    ])
    .with_title(
        "Table 3: precision of deployed assertions on up to 50 sampled triggers \
         (paper: 88-100% in all cases)",
    )
    .with_aligns(vec![Align::Left, Align::Right, Align::Right, Align::Right]);
    for r in rows {
        t.row(vec![
            r.assertion.to_string(),
            r.id_and_output
                .map_or("N/A".to_string(), |p| format!("{:.0}%", p.percent())),
            format!("{:.0}%", r.output_only.percent()),
            r.output_only.total.to_string(),
        ]);
    }
    t.to_string()
}

fn copy_row(r: &Row) -> Row {
    Row {
        assertion: r.assertion,
        consistency: r.consistency,
        id_and_output: r.id_and_output,
        output_only: r.output_only,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_all_assertions_with_high_precision() {
        let s = super::run(2024, &omg_core::runtime::ThreadPool::sequential());
        for a in ["news", "ecg", "flicker", "appear", "multibox", "agree"] {
            assert!(s.contains(a), "missing {a} in:\n{s}");
        }
    }
}
