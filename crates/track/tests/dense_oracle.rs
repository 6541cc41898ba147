//! The dense tracker and its history-free associator against the
//! B-tree tracker they replaced.
//!
//! `IouAssociator` keeps only the live tracks; `IouTracker` adds a `Vec`
//! of tracks indexed by id, and each `Track` keeps its observations in a
//! frame-sorted `Vec`. The `OracleTracker` and `OracleTrack` below are
//! the earlier implementation, with a `BTreeMap` of tracks keyed by id
//! and a `BTreeMap` of observations keyed by frame, kept as the one
//! oracle. It finds candidate pairs with the O(n²) reference scan and
//! sorts them with a `total_cmp` comparator, so it shares neither the
//! grid index nor the integer sort key with the associator. The prepared scoring path runs the associator and its
//! self-contained reference runs the tracker built on it, so the
//! stream==batch suites cannot see an association change; these
//! properties are the check that can. The prepared path calls
//! `assign_with`, whose crowded steps take the previous call's pairs
//! from a caller's scan; the properties drive it with a scan that
//! answers from the reference and checks what it is asked.

use std::collections::BTreeMap;

use omg_geom::{reference, BBox2D};
use omg_track::{IouAssociator, IouTracker, Observation, Track, TrackId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The earlier `Track`: a sparse map from frame to observation.
#[derive(Debug, Clone)]
struct OracleTrack {
    id: TrackId,
    observations: BTreeMap<usize, Observation>,
}

impl OracleTrack {
    fn new(id: TrackId, frame: usize, obs: Observation) -> Self {
        let mut observations = BTreeMap::new();
        observations.insert(frame, obs);
        Self { id, observations }
    }

    fn record(&mut self, frame: usize, obs: Observation) {
        self.observations.insert(frame, obs);
    }

    fn last_frame(&self) -> usize {
        *self.observations.keys().next_back().unwrap()
    }

    fn latest(&self) -> &Observation {
        self.observations.values().next_back().unwrap()
    }

    fn gap_frames(&self) -> Vec<usize> {
        let frames: Vec<usize> = self.observations.keys().copied().collect();
        frames.windows(2).flat_map(|w| (w[0] + 1)..w[1]).collect()
    }

    fn majority_class(&self) -> usize {
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for obs in self.observations.values() {
            *counts.entry(obs.class).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .unwrap()
    }
}

/// The earlier `IouTracker`: tracks in a `BTreeMap` keyed by id, the
/// latest frame recomputed from every track on each update.
struct OracleTracker {
    iou_threshold: f64,
    max_age: usize,
    next_id: u64,
    tracks: BTreeMap<TrackId, OracleTrack>,
    live: Vec<TrackId>,
}

impl OracleTracker {
    fn new(iou_threshold: f64, max_age: usize) -> Self {
        Self {
            iou_threshold,
            max_age,
            next_id: 0,
            tracks: BTreeMap::new(),
            live: Vec::new(),
        }
    }

    fn update(&mut self, frame: usize, detections: &[Observation]) -> Vec<TrackId> {
        if let Some(last) = self.tracks.values().map(|t| t.last_frame()).max() {
            assert!(frame >= last || self.live.is_empty());
        }
        self.live.retain(|id| {
            let t = &self.tracks[id];
            frame.saturating_sub(t.last_frame()) <= self.max_age
        });
        let track_boxes: Vec<BBox2D> = self
            .live
            .iter()
            .map(|id| self.tracks[id].latest().bbox)
            .collect();
        let det_boxes: Vec<BBox2D> = detections.iter().map(|d| d.bbox).collect();
        // The O(n²) reference scan and a `total_cmp` comparator sort: the
        // grid index and the associator's integer sort key are both code
        // under test, so the oracle uses neither.
        let mut pairs = Vec::new();
        omg_geom::reference::iou_pairs(&track_boxes, &det_boxes, self.iou_threshold, &mut pairs);
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut track_taken = vec![false; self.live.len()];
        let mut det_assignment: Vec<Option<TrackId>> = vec![None; detections.len()];
        for (_, ti, di) in pairs {
            if track_taken[ti] || det_assignment[di].is_some() {
                continue;
            }
            track_taken[ti] = true;
            det_assignment[di] = Some(self.live[ti]);
        }
        let mut out = Vec::with_capacity(detections.len());
        for (di, det) in detections.iter().enumerate() {
            let id = match det_assignment[di] {
                Some(id) => {
                    self.tracks.get_mut(&id).unwrap().record(frame, *det);
                    id
                }
                None => {
                    let id = TrackId(self.next_id);
                    self.next_id += 1;
                    self.tracks.insert(id, OracleTrack::new(id, frame, *det));
                    self.live.push(id);
                    id
                }
            };
            out.push(id);
        }
        out
    }
}

/// Every observable of a dense track, for comparison with the oracle.
fn observe(t: &Track) -> (TrackId, Vec<(usize, Observation)>, usize, usize, usize) {
    (
        t.id(),
        t.iter().map(|(f, o)| (f, *o)).collect(),
        t.first_frame(),
        t.last_frame(),
        t.len(),
    )
}

/// The same observables of an oracle track.
fn observe_oracle(t: &OracleTrack) -> (TrackId, Vec<(usize, Observation)>, usize, usize, usize) {
    let obs: Vec<(usize, Observation)> = t.observations.iter().map(|(&f, &o)| (f, o)).collect();
    (t.id, obs.clone(), obs[0].0, t.last_frame(), obs.len())
}

fn obs(x: f64, y: f64, w: f64, class: usize) -> Observation {
    Observation {
        bbox: BBox2D::new(x, y, x + w, y + w).unwrap(),
        class,
        score: 0.5,
    }
}

/// A seeded frame sequence with non-decreasing frame numbers: drifting
/// objects that sometimes flicker out, exact duplicates (exact IoU
/// ties), random clutter, empty frames, repeated frame numbers and gaps
/// longer than `max_age`. About one frame in four starts a run of
/// crowded frames (128–300 boxes), enough for the matcher's grid index
/// once the previous frame left as many live tracks.
fn frame_sequence(seed: u64, max_age: usize) -> Vec<(usize, Vec<Observation>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_frames = rng.gen_range(1..10usize);
    let mut objects: Vec<(f64, f64, f64)> = Vec::new();
    let mut frame = rng.gen_range(0..3usize);
    let mut out = Vec::with_capacity(n_frames);
    let mut crowded = false;
    for _ in 0..n_frames {
        let target = match rng.gen_range(0..8u32) {
            0 => 0,
            1 | 2 => rng.gen_range(128..301usize),
            // Crowded frames come in runs, so the associator splits
            // steps while older tracks are live.
            3..=6 if crowded => rng.gen_range(128..301usize),
            _ => rng.gen_range(1..24usize),
        };
        crowded = target >= 128;
        while objects.len() < target {
            objects.push((
                rng.gen_range(0.0..600.0),
                rng.gen_range(0.0..600.0),
                rng.gen_range(4.0..30.0),
            ));
        }
        let mut dets = Vec::with_capacity(target);
        for object in objects.iter_mut().take(target) {
            object.0 += rng.gen_range(-2.0..2.0);
            object.1 += rng.gen_range(-2.0..2.0);
            let (x, y, w) = *object;
            if rng.gen_bool(0.85) {
                dets.push(obs(x, y, w, rng.gen_range(0..3usize)));
            }
            if rng.gen_bool(0.05) {
                // The same box twice in one frame: exact IoU ties.
                dets.push(obs(x, y, w, rng.gen_range(0..3usize)));
            }
        }
        if target > 0 && rng.gen_bool(0.3) {
            let w = rng.gen_range(4.0..30.0);
            dets.push(obs(
                rng.gen_range(0.0..600.0),
                rng.gen_range(0.0..600.0),
                w,
                0,
            ));
        }
        dets.truncate(300);
        out.push((frame, dets));
        frame += match rng.gen_range(0..10u32) {
            0 => 0,
            1 => max_age + rng.gen_range(2..5usize),
            2 => 2,
            _ => 1,
        };
    }
    out
}

/// One pinned crowded sequence in the `CrowdConfig::clutter_heavy`
/// shape: `n_frames` frames of exactly 1,000 boxes on a 1280×720 image,
/// 40% of them in clusters of 5 exact duplicates (exact IoU ties among
/// tracks and detections alike) and the rest alone. Each cluster and
/// lone box drifts up to 6 pixels per frame on each axis, wrapping at
/// the image's side edges, so boxes also cross the grid's row lines.
fn crowd_sequence(seed: u64, n_frames: usize) -> Vec<Vec<Observation>> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Position, velocity and size, then class and copies per frame: 80
    // clusters of 5, then 600 lone boxes.
    let mut drifters: Vec<([f64; 5], usize, usize)> = (0..680)
        .map(|i| {
            let state = [
                rng.gen_range(0.0..1280.0),
                rng.gen_range(0.0..648.0),
                rng.gen_range(-6.0..6.0),
                rng.gen_range(-6.0..6.0),
                rng.gen_range(25.0..90.0),
            ];
            (state, rng.gen_range(0..3usize), if i < 80 { 5 } else { 1 })
        })
        .collect();
    (0..n_frames)
        .map(|_| {
            let mut dets = Vec::with_capacity(1000);
            for ([x, y, vx, vy, w], class, copies) in &mut drifters {
                *x = (*x + *vx + rng.gen_range(-1.0..1.0)).rem_euclid(1280.0);
                *y += *vy + rng.gen_range(-1.0..1.0);
                dets.extend(std::iter::repeat(obs(*x, *y, *w, *class)).take(*copies));
            }
            dets
        })
        .collect()
}

const THRESHOLDS: [f64; 4] = [0.1, 0.25, 0.3, 0.5];

/// Whether two box lists are equal coordinate for coordinate, bit for
/// bit.
fn same_bits(a: &[BBox2D], b: &[BBox2D]) -> bool {
    let bits = |b: &BBox2D| [b.x1(), b.y1(), b.x2(), b.y2()].map(f64::to_bits);
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| bits(a) == bits(b))
}

/// `assign_with` over one frame, with a scan that answers from the
/// reference and asserts that it is asked for `previous` (the previous
/// call's boxes, bit for bit) against this frame's boxes. Returns the
/// ids and the number of anchors the scan was given, if it was called.
fn assign_with_reference_scan(
    associator: &mut IouAssociator,
    frame: usize,
    dets: &[Observation],
    previous: &[BBox2D],
) -> (Vec<TrackId>, Option<usize>) {
    let boxes: Vec<BBox2D> = dets.iter().map(|d| d.bbox).collect();
    let mut scanned = None;
    let ids = associator
        .assign_with(
            frame,
            boxes.iter().copied(),
            |anchors, queries, thr, out| {
                assert!(
                    same_bits(anchors, previous),
                    "anchors are not the previous call's boxes"
                );
                assert!(
                    same_bits(queries, &boxes),
                    "queries are not this call's boxes"
                );
                scanned = Some(anchors.len());
                reference::iou_pairs(anchors, queries, thr, out);
            },
        )
        .to_vec();
    (ids, scanned)
}

proptest! {
    /// The dense tracker issues the oracle's ids frame by frame and ends
    /// with the oracle's tracks, observations and counts.
    #[test]
    fn dense_tracker_matches_btree_oracle(
        seed in any::<u64>(),
        threshold in 0usize..THRESHOLDS.len(),
        max_age in 0usize..4,
    ) {
        let threshold = THRESHOLDS[threshold];
        let mut dense = IouTracker::new(threshold, max_age);
        let mut oracle = OracleTracker::new(threshold, max_age);
        for (frame, dets) in frame_sequence(seed, max_age) {
            prop_assert_eq!(dense.update(frame, &dets), oracle.update(frame, &dets));
        }
        prop_assert_eq!(dense.num_tracks(), oracle.tracks.len());
        let got: Vec<_> = dense.tracks().map(observe).collect();
        let want: Vec<_> = oracle.tracks.values().map(observe_oracle).collect();
        prop_assert_eq!(got, want);
        for id in 0..=oracle.tracks.len() as u64 + 1 {
            let id = TrackId(id);
            prop_assert_eq!(
                dense.track(id).map(observe),
                oracle.tracks.get(&id).map(observe_oracle)
            );
        }
        let everything: Vec<_> = dense.into_tracks().iter().map(observe).collect();
        let want: Vec<_> = oracle.tracks.values().map(observe_oracle).collect();
        prop_assert_eq!(everything, want);
    }

    /// The associator alone, fed each frame's boxes, issues the oracle's
    /// ids frame by frame and creates as many tracks.
    #[test]
    fn associator_matches_btree_oracle(
        seed in any::<u64>(),
        threshold in 0usize..THRESHOLDS.len(),
        max_age in 0usize..4,
    ) {
        let threshold = THRESHOLDS[threshold];
        let mut associator = IouAssociator::new(threshold, max_age);
        let mut oracle = OracleTracker::new(threshold, max_age);
        for (frame, dets) in frame_sequence(seed, max_age) {
            let got = associator.assign(frame, dets.iter().map(|d| d.bbox)).to_vec();
            prop_assert_eq!(got, oracle.update(frame, &dets));
        }
        prop_assert_eq!(associator.num_tracks(), oracle.tracks.len());
    }

    /// The associator with a caller's scan, which answers from the
    /// reference, issues the oracle's ids frame by frame: a split step's
    /// re-keyed pairs plus the older tracks' sort as one scan's do.
    #[test]
    fn associator_with_a_reference_scan_matches_btree_oracle(
        seed in any::<u64>(),
        threshold in 0usize..THRESHOLDS.len(),
        max_age in 0usize..4,
    ) {
        let threshold = THRESHOLDS[threshold];
        let mut associator = IouAssociator::new(threshold, max_age);
        let mut oracle = OracleTracker::new(threshold, max_age);
        let mut previous: Vec<BBox2D> = Vec::new();
        for (frame, dets) in frame_sequence(seed, max_age) {
            let (got, _) = assign_with_reference_scan(&mut associator, frame, &dets, &previous);
            prop_assert_eq!(got, oracle.update(frame, &dets));
            previous = dets.iter().map(|d| d.bbox).collect();
        }
        prop_assert_eq!(associator.num_tracks(), oracle.tracks.len());
    }

    /// The contract `assign` documents: a frame's ids are distinct, and
    /// the ids it creates continue from `num_tracks()`, ascending and
    /// dense, in query order.
    #[test]
    fn associator_ids_are_distinct_per_frame_and_dense(
        seed in any::<u64>(),
        threshold in 0usize..THRESHOLDS.len(),
        max_age in 0usize..4,
    ) {
        let mut associator = IouAssociator::new(THRESHOLDS[threshold], max_age);
        for (frame, dets) in frame_sequence(seed, max_age) {
            let before = associator.num_tracks() as u64;
            let ids: Vec<u64> = associator
                .assign(frame, dets.iter().map(|d| d.bbox))
                .iter()
                .map(|id| id.0)
                .collect();
            let distinct: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
            prop_assert_eq!(distinct.len(), ids.len(), "an id twice in frame {}", frame);
            let created: Vec<u64> = ids.iter().copied().filter(|&id| id >= before).collect();
            let dense: Vec<u64> = (before..).take(created.len()).collect();
            prop_assert_eq!(&created, &dense);
            prop_assert_eq!(associator.num_tracks() as u64, before + created.len() as u64);
        }
    }

    /// A track recorded out of frame order, with replaced frames, reads
    /// back like the oracle's frame-keyed map.
    #[test]
    fn track_recorded_out_of_order_matches_btree_oracle(
        records in proptest::collection::vec((0usize..24, 0usize..4, 0.0f64..50.0), 0..30),
        first in (0usize..24, 0usize..4),
    ) {
        let start = obs(0.0, 0.0, 10.0, first.1);
        let mut dense = Track::new(TrackId(7), first.0, start);
        let mut oracle = OracleTrack::new(TrackId(7), first.0, start);
        for &(frame, class, x) in &records {
            let o = obs(x, 0.0, 10.0, class);
            dense.record(frame, o);
            oracle.record(frame, o);
        }
        prop_assert_eq!(observe(&dense), observe_oracle(&oracle));
        for frame in 0..26 {
            prop_assert_eq!(dense.at(frame), oracle.observations.get(&frame));
        }
        prop_assert_eq!(dense.latest(), oracle.latest());
        prop_assert_eq!(dense.gap_frames(), oracle.gap_frames());
        prop_assert_eq!(dense.majority_class(), oracle.majority_class());
        prop_assert!(!dense.is_empty());
    }
}

/// Whether `assign_with` over `seq` makes a split step while older
/// tracks are live too, and a single-scan step with live tracks and
/// boxes, at threshold 0.25.
fn split_and_single_steps(seq: &[(usize, Vec<Observation>)], max_age: usize) -> [bool; 2] {
    let mut associator = IouAssociator::new(0.25, max_age);
    let mut oracle = OracleTracker::new(0.25, max_age);
    let mut previous: Vec<BBox2D> = Vec::new();
    let (mut split_with_older, mut single) = (false, false);
    for (frame, dets) in seq {
        let live = oracle
            .live
            .iter()
            .filter(|id| frame.saturating_sub(oracle.tracks[id].last_frame()) <= max_age)
            .count();
        match assign_with_reference_scan(&mut associator, *frame, dets, &previous).1 {
            Some(recent) => split_with_older |= live > recent,
            None => single |= live > 0 && !dets.is_empty(),
        }
        oracle.update(*frame, dets);
        previous = dets.iter().map(|d| d.bbox).collect();
    }
    [split_with_older, single]
}

/// The sequence generator reaches the grid index (both sides of an
/// association at or above 128 boxes), split steps with older tracks
/// live and single-scan steps, and each promised edge case in a good
/// share of sequences, so the properties' 64 random seeds cover them
/// all.
#[test]
fn frame_sequences_cover_the_promised_cases() {
    let mut counts = [0usize; 7];
    let seeds = 256;
    for seed in 0..seeds {
        let max_age = (seed % 4) as usize;
        let seq = frame_sequence(seed, max_age);
        let pairs = || seq.windows(2);
        let [split_with_older, single] = split_and_single_steps(&seq, max_age);
        let has = [
            split_with_older,
            single,
            pairs().any(|w| w[0].1.len() >= 128 && w[1].1.len() >= 128),
            seq.iter().any(|(_, d)| d.is_empty()),
            pairs().any(|w| w[0].0 == w[1].0),
            pairs().any(|w| w[1].0 - w[0].0 > max_age + 1),
            seq.iter().any(|(_, d)| {
                d.iter()
                    .enumerate()
                    .any(|(i, a)| d[..i].iter().any(|b| b.bbox == a.bbox))
            }),
        ];
        for (count, hit) in counts.iter_mut().zip(has) {
            *count += usize::from(hit);
        }
    }
    assert!(
        counts.iter().all(|&c| c * 8 >= seeds as usize),
        "{counts:?}"
    );
}

/// Association at the crowded workload's density, pinned rather than
/// generated to bound the debug test time: four frames of 1,000 boxes
/// (`crowd_sequence`) through the associator, the associator with a
/// reference scan (a split step on every frame after the first) and
/// the tracker against the oracle, at the video preparer's association
/// threshold (0.25) and at 0.5. Most boxes keep their track (the oracle
/// creates fewer than 1,100), so the grid's candidate pairs decide
/// nearly every id.
#[test]
fn thousand_box_frames_match_btree_oracle() {
    // The first box whose id differs, so a failure names one box
    // instead of printing 2,000 ids.
    let first_diff = |a: &[TrackId], b: &[TrackId]| a.iter().zip(b).position(|(x, y)| x != y);
    let frames = crowd_sequence(11, 4);
    for threshold in [0.25, 0.5] {
        let mut associator = IouAssociator::new(threshold, 3);
        let mut split = IouAssociator::new(threshold, 3);
        let mut dense = IouTracker::new(threshold, 3);
        let mut oracle = OracleTracker::new(threshold, 3);
        let mut previous: Vec<BBox2D> = Vec::new();
        for (frame, dets) in frames.iter().enumerate() {
            assert_eq!(dets.len(), 1000);
            let want = oracle.update(frame, dets);
            let got = associator.assign(frame, dets.iter().map(|d| d.bbox));
            let at = format!("at {threshold}, frame {frame}");
            assert_eq!(first_diff(got, &want), None, "associator {at}");
            let (got, scanned) = assign_with_reference_scan(&mut split, frame, dets, &previous);
            assert_eq!(scanned.is_some(), frame > 0, "split step {at}");
            assert_eq!(first_diff(&got, &want), None, "associator with a scan {at}");
            previous = dets.iter().map(|d| d.bbox).collect();
            assert_eq!(
                first_diff(&dense.update(frame, dets), &want),
                None,
                "tracker {at}"
            );
        }
        assert!(oracle.tracks.len() < 1100, "{} tracks", oracle.tracks.len());
        let got: Vec<_> = dense.tracks().map(observe).collect();
        let want: Vec<_> = oracle.tracks.values().map(observe_oracle).collect();
        assert_eq!(got, want, "tracks at {threshold}");
    }
}

/// A frame earlier than one already recorded panics, in the tracker and
/// in the associator alone, exactly when the oracle's does: only while a
/// track is live, and measured against the latest frame of any track,
/// not the latest update.
#[test]
fn out_of_order_frames_panic_like_the_oracle() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let sequences: [&[(usize, usize)]; 3] = [
        &[(0, 1), (5, 1), (5, 0), (3, 1)],
        &[(0, 1), (9, 0), (4, 1)],
        &[(0, 1), (9, 0), (4, 1), (3, 1)],
    ];
    for seq in sequences {
        let mut dense = IouTracker::new(0.3, 2);
        let mut associator = IouAssociator::new(0.3, 2);
        let mut oracle = OracleTracker::new(0.3, 2);
        for &(frame, n) in seq {
            let dets = vec![obs(0.0, 0.0, 10.0, 0); n];
            let got = catch_unwind(AssertUnwindSafe(|| dense.update(frame, &dets)));
            let assigned = catch_unwind(AssertUnwindSafe(|| {
                associator
                    .assign(frame, dets.iter().map(|d| d.bbox))
                    .to_vec()
            }));
            let want = catch_unwind(AssertUnwindSafe(|| oracle.update(frame, &dets)));
            assert_eq!(got.is_err(), want.is_err(), "{seq:?} at frame {frame}");
            assert_eq!(assigned.is_err(), want.is_err(), "{seq:?} at frame {frame}");
            match (got, assigned, want) {
                (Ok(got), Ok(assigned), Ok(want)) => {
                    assert_eq!(got, want);
                    assert_eq!(assigned, want);
                }
                _ => break,
            }
        }
    }
}
