//! The paper's qualitative claims, asserted as tests against the
//! simulated evaluation (the shapes, not the absolute numbers).

use omg_bench::video::{detect_all, pretrained_detector, window_at, VideoScenario, FLICKER_T};
use omg_domains::video_assertion_set;
use omg_sim::detector::{Detection, DetectorConfig, Provenance, SimDetector};
use omg_sim::traffic::{TrafficConfig, TrafficWorld};

#[test]
fn assertions_find_high_confidence_errors() {
    // §5.3: errors caught by assertions reach high confidence percentiles,
    // which uncertainty-based monitoring cannot flag.
    let mut world = TrafficWorld::new(TrafficConfig::night_street(), 77);
    let frames = world.steps(600);
    let det = SimDetector::pretrained(DetectorConfig::default(), 1);
    let dets: Vec<Vec<Detection>> = frames
        .iter()
        .map(|f| det.detect_frame(f.index, &f.signals))
        .collect();
    let all_conf: Vec<f64> = dets
        .iter()
        .flat_map(|d| d.iter().map(|x| x.scored.score))
        .collect();
    let err_conf: Vec<f64> = dets
        .iter()
        .flat_map(|d| d.iter().filter(|x| x.is_error()).map(|x| x.scored.score))
        .collect();
    assert!(!err_conf.is_empty(), "the night detector must make errors");
    let top_err = err_conf.iter().cloned().fold(0.0f64, f64::max);
    let pct = omg_eval::stats::percentile_rank(&all_conf, top_err);
    assert!(
        pct > 80.0,
        "top error confidence should be high percentile: {pct:.0}th"
    );
}

#[test]
fn errors_are_systematic_not_uniform() {
    // §1: errors concentrate on a subpopulation (dark vehicles), which is
    // why assertion-flagged data is informative.
    let mut world = TrafficWorld::new(TrafficConfig::night_street(), 78);
    let frames = world.steps(500);
    let det = SimDetector::pretrained(DetectorConfig::default(), 1);
    let mut dark_missed = 0usize;
    let mut dark_total = 0usize;
    let mut easy_missed = 0usize;
    let mut easy_total = 0usize;
    for f in &frames {
        let dets = det.detect_frame(f.index, &f.signals);
        for s in f.signals.iter().filter(|s| !s.is_clutter()) {
            let detected = dets.iter().any(|d| {
                matches!(d.provenance, Provenance::Object { track_id, .. } if track_id == s.track_id)
            });
            if s.quality < 0.5 {
                dark_total += 1;
                dark_missed += usize::from(!detected);
            } else {
                easy_total += 1;
                easy_missed += usize::from(!detected);
            }
        }
    }
    assert!(dark_total > 20 && easy_total > 100);
    let dark_rate = dark_missed as f64 / dark_total as f64;
    let easy_rate = easy_missed as f64 / easy_total as f64;
    assert!(
        dark_rate > 2.0 * easy_rate,
        "misses must concentrate: dark {dark_rate:.2} vs easy {easy_rate:.2}"
    );
}

#[test]
fn flagged_frames_contain_more_errors_than_random_frames() {
    // The premise behind assertion-based data selection (§3).
    let mut world = TrafficWorld::new(TrafficConfig::night_street(), 79);
    let frames = world.steps(400);
    let det = SimDetector::pretrained(DetectorConfig::default(), 1);
    let dets: Vec<Vec<Detection>> = frames
        .iter()
        .map(|f| det.detect_frame(f.index, &f.signals))
        .collect();
    let set = video_assertion_set(0.45);
    let mut flagged_err = 0usize;
    let mut flagged_n = 0usize;
    let mut clean_err = 0usize;
    let mut clean_n = 0usize;
    for c in 0..frames.len() {
        let lo = c.saturating_sub(2);
        let hi = (c + 3).min(frames.len());
        let window = omg_domains::VideoWindow::new(
            (lo..hi)
                .map(|i| omg_domains::VideoFrame {
                    index: frames[i].index,
                    time: frames[i].time,
                    dets: dets[i].iter().map(|d| d.scored).collect(),
                })
                .collect(),
            c - lo,
        );
        let fired = set.check_all(&window).iter().any(|(_, s)| s.fired());
        let errors = dets[c].iter().filter(|d| d.is_error()).count();
        if fired {
            flagged_err += errors;
            flagged_n += 1;
        } else {
            clean_err += errors;
            clean_n += 1;
        }
    }
    assert!(
        flagged_n > 10 && clean_n > 10,
        "need both populations: {flagged_n}/{clean_n}"
    );
    let flagged_rate = flagged_err as f64 / flagged_n as f64;
    let clean_rate = clean_err as f64 / clean_n as f64;
    assert!(
        flagged_rate > clean_rate,
        "flagged frames must be error-richer: {flagged_rate:.2} vs {clean_rate:.2}"
    );
}

#[test]
fn night_street_detector_holds_its_calibration() {
    // The simulator's operating point, which the shape tests above and
    // Table 3's precisions rest on: seed 11, 400 pool frames, the
    // pretrained detector of seed 1.
    let scenario = VideoScenario::night_street(11, 400, 200);
    let det = pretrained_detector(1);
    let frames = &scenario.pool_frames;
    let dets = detect_all(&det, frames);
    let (mut dark, mut clutter) = (Vec::new(), Vec::new());
    for s in frames.iter().flat_map(|f| &f.signals) {
        if s.is_clutter() {
            clutter.push(det.detect_probability(s));
        } else if s.quality < 0.55 {
            dark.push(det.detect_probability(s));
        }
    }
    let dark_p = omg_eval::stats::mean(&dark);
    assert!(
        (0.70..=0.80).contains(&dark_p),
        "dark objects' detection probability left [0.70, 0.80]: {dark_p:.3} (n = {})",
        dark.len()
    );
    let clutter_p = omg_eval::stats::mean(&clutter);
    assert!(
        clutter_p <= 0.07,
        "clutter's detection probability rose above 0.07: {clutter_p:.3} (n = {})",
        clutter.len()
    );

    // §5.3: the most confident error reaches the 100th percentile of all
    // detections' confidences, rounded to a whole percentile (99.66 at
    // this seed: a few correct detections score higher).
    let all_conf: Vec<f64> = dets.iter().flatten().map(|d| d.scored.score).collect();
    let top_err = dets
        .iter()
        .flatten()
        .filter(|d| d.is_error())
        .map(|d| d.scored.score)
        .max_by(f64::total_cmp)
        .expect("the night detector makes errors");
    let pct = omg_eval::stats::percentile_rank(&all_conf, top_err);
    assert_eq!(
        pct.round(),
        100.0,
        "the most confident error ({top_err:.3}) sits at the {pct:.2}th percentile"
    );

    // §3: enough windows on which no assertion fires to contrast with.
    let set = video_assertion_set(FLICKER_T);
    let clean = (0..frames.len())
        .filter(|&c| {
            let window = window_at(frames, &dets, c);
            !set.check_all(&window).iter().any(|(_, s)| s.fired())
        })
        .count();
    assert!(clean >= 20, "only {clean} of 400 windows fire no assertion");
}
