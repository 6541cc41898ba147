//! End-to-end monitoring: world → detector → assertions → database, for
//! all four domains.

use omg_core::runtime::ThreadPool;
use omg_core::Monitor;
use omg_domains::{av_assertion_set, video_assertion_set, AvFrame, VideoFrame, VideoWindow};
use omg_sim::av::{AvConfig, AvWorld};
use omg_sim::detector::{DetectorConfig, SimDetector};
use omg_sim::news::{NewsConfig, NewsWorld};
use omg_sim::traffic::{TrafficConfig, TrafficWorld};

fn video_windows(n: usize, seed: u64) -> Vec<VideoWindow> {
    let mut world = TrafficWorld::new(TrafficConfig::night_street(), seed);
    let frames = world.steps(n);
    let detector = SimDetector::pretrained(DetectorConfig::default(), 1);
    let dets: Vec<Vec<_>> = frames
        .iter()
        .map(|f| detector.detect_frame(f.index, &f.signals))
        .collect();
    (0..n)
        .map(|c| {
            let lo = c.saturating_sub(2);
            let hi = (c + 3).min(n);
            VideoWindow::new(
                (lo..hi)
                    .map(|i| VideoFrame {
                        index: frames[i].index,
                        time: frames[i].time,
                        dets: dets[i].iter().map(|d| d.scored).collect(),
                    })
                    .collect(),
                c - lo,
            )
        })
        .collect()
}

#[test]
fn video_pipeline_fires_and_records() {
    let windows = video_windows(300, 5);
    let mut monitor = Monitor::with_assertions(video_assertion_set(0.45));
    for w in &windows {
        monitor.process(w);
    }
    assert_eq!(monitor.samples_processed(), 300);
    let counts = monitor.db().fire_counts();
    assert_eq!(counts.len(), 3);
    assert!(
        counts.iter().sum::<usize>() > 10,
        "a night-deployed still-image detector must trip assertions: {counts:?}"
    );
    // The severity matrix is dense and consistent with the counts.
    let matrix = monitor.db().severity_matrix();
    assert_eq!(matrix.len(), 300);
    for (m, &count) in counts.iter().enumerate() {
        let col = matrix.iter().filter(|r| r[m] > 0.0).count();
        assert_eq!(col, count);
    }
}

#[test]
fn av_pipeline_catches_sensor_disagreement() {
    let world = AvWorld::new(AvConfig::default(), 2);
    let camera = SimDetector::pretrained(DetectorConfig::default(), 1);
    let mut monitor = Monitor::with_assertions(av_assertion_set());
    for scene in 0..5u64 {
        for sample in world.scene(scene) {
            let dets = camera.detect_frame(scene * 10_000 + sample.index as u64, &sample.signals);
            monitor.process(&AvFrame {
                time: sample.time,
                camera_dets: dets.iter().map(|d| d.scored).collect(),
                lidar_boxes: sample
                    .lidar
                    .iter()
                    .filter(|l| l.score >= 0.3)
                    .map(|l| l.bbox)
                    .collect(),
                camera: sample.camera,
            });
        }
    }
    let agree = monitor.assertions().id_of("agree").unwrap();
    assert!(
        monitor.db().fire_count(agree) > 5,
        "LIDAR and a weak camera must disagree somewhere"
    );
}

#[test]
fn news_pipeline_flags_attribute_inconsistencies() {
    use omg_core::Assertion;
    let world = NewsWorld::new(NewsConfig::default(), 4);
    let assertion = omg_domains::news::news_assertion();
    let fired = world
        .scenes(0..150)
        .iter()
        .filter(|s| assertion.check(s).fired())
        .count();
    assert!(
        fired > 3,
        "transient identity/gender/hair errors must fire: {fired}"
    );
    assert!(fired < 150, "not every scene should fire: {fired}");
}

/// The deployment-scale path on real domain assertions: `process_batch`
/// over the night-street stream reproduces the sequential monitor
/// bit-for-bit (reports, database, corrective-action count) at every
/// thread count.
#[test]
fn video_batch_monitoring_matches_sequential() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let windows = video_windows(200, 5);

    let build = || {
        let mut m = Monitor::with_assertions(video_assertion_set(0.45));
        let alerts = Arc::new(AtomicUsize::new(0));
        let a = alerts.clone();
        m.on_severity(omg_core::Severity::new(1.0), move |_, _| {
            a.fetch_add(1, Ordering::SeqCst);
        });
        (m, alerts)
    };

    let (mut seq, seq_alerts) = build();
    let seq_reports: Vec<_> = windows.iter().map(|w| seq.process(w)).collect();
    for threads in [1, 2, 8] {
        let (mut par, par_alerts) = build();
        let par_reports = par.process_batch(&windows, &ThreadPool::new(threads));
        assert_eq!(
            par_reports, seq_reports,
            "reports differ at {threads} threads"
        );
        assert_eq!(par.db(), seq.db(), "database differs at {threads} threads");
        assert_eq!(
            par_alerts.load(Ordering::SeqCst),
            seq_alerts.load(Ordering::SeqCst),
            "corrective actions differ at {threads} threads"
        );
    }
}

#[test]
fn corrective_actions_trigger_on_threshold() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let windows = video_windows(150, 9);
    let mut monitor = Monitor::with_assertions(video_assertion_set(0.45));
    let alerts = Arc::new(AtomicUsize::new(0));
    let a = alerts.clone();
    monitor.on_severity(omg_core::Severity::new(1.0), move |_, _| {
        a.fetch_add(1, Ordering::SeqCst);
    });
    for w in &windows {
        monitor.process(w);
    }
    assert_eq!(
        alerts.load(Ordering::SeqCst),
        monitor.db().any_fired_samples().len(),
        "one corrective action per flagged window"
    );
}
