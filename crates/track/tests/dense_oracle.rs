//! The history-free associator against the B-tree tracker it replaced.
//!
//! `IouAssociator` keeps only the live tracks, contiguously in creation
//! order. The `OracleTracker` below is the earlier implementation, with
//! a `BTreeMap` of tracks keyed by id, each holding its last frame and
//! latest box, and the latest frame recomputed from every track on each
//! update; it is kept as the one oracle. It finds candidate pairs with
//! the O(n²) reference scan, sorts all of them with a `total_cmp`
//! comparator and matches them in one greedy pass, so it shares neither
//! the grid index, the integer rank key nor the deferred acceptance with
//! the associator. The prepared scoring path and its
//! self-contained reference (`track_window`) both run the associator,
//! so the stream==batch suites cannot see an association change; these
//! properties are the check that can. The prepared path calls
//! `assign_with`, whose crowded steps take the previous call's pairs
//! from a caller's scan; the properties drive it with a scan that
//! answers from the reference and checks what it is asked, and with one
//! that also reorders its answer as far as the scan contract allows.

use std::collections::BTreeMap;

use omg_geom::{reference, BBox2D};
use omg_track::{IouAssociator, TrackId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The earlier track, reduced to what association reads of it: its last
/// frame and its latest box.
#[derive(Debug, Clone)]
struct OracleTrack {
    last_frame: usize,
    bbox: BBox2D,
}

/// The earlier tracker: tracks in a `BTreeMap` keyed by id, the
/// latest frame recomputed from every track on each update.
struct OracleTracker {
    iou_threshold: f64,
    max_age: usize,
    next_id: u64,
    tracks: BTreeMap<TrackId, OracleTrack>,
    live: Vec<TrackId>,
    /// Tracks so far whose best candidate query went to a better pair:
    /// a track the associator's deferred acceptance may see displaced.
    displacements: usize,
}

impl OracleTracker {
    fn new(iou_threshold: f64, max_age: usize) -> Self {
        Self {
            iou_threshold,
            max_age,
            next_id: 0,
            tracks: BTreeMap::new(),
            live: Vec::new(),
            displacements: 0,
        }
    }

    fn update(&mut self, frame: usize, boxes: &[BBox2D]) -> Vec<TrackId> {
        if let Some(last) = self.tracks.values().map(|t| t.last_frame).max() {
            assert!(frame >= last || self.live.is_empty());
        }
        self.live.retain(|id| {
            let t = &self.tracks[id];
            frame.saturating_sub(t.last_frame) <= self.max_age
        });
        let track_boxes: Vec<BBox2D> = self.live.iter().map(|id| self.tracks[id].bbox).collect();
        // The O(n²) reference scan, a `total_cmp` comparator sort of every
        // pair and one greedy pass: the grid index, the associator's
        // integer rank key and its deferred acceptance are all code under
        // test, so the oracle uses none of them.
        let mut pairs = Vec::new();
        omg_geom::reference::iou_pairs(&track_boxes, boxes, self.iou_threshold, &mut pairs);
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut track_taken = vec![false; self.live.len()];
        let mut track_seen = vec![false; self.live.len()];
        let mut box_assignment: Vec<Option<TrackId>> = vec![None; boxes.len()];
        for (_, ti, bi) in pairs {
            // A track's first pair is its best; its track is still free,
            // so only a better pair's claim on the query can skip it.
            let best = !std::mem::replace(&mut track_seen[ti], true);
            if track_taken[ti] || box_assignment[bi].is_some() {
                self.displacements += usize::from(best);
                continue;
            }
            track_taken[ti] = true;
            box_assignment[bi] = Some(self.live[ti]);
        }
        let mut out = Vec::with_capacity(boxes.len());
        for (&bbox, assigned) in boxes.iter().zip(box_assignment) {
            let id = match assigned {
                Some(id) => id,
                None => {
                    let id = TrackId(self.next_id);
                    self.next_id += 1;
                    self.live.push(id);
                    id
                }
            };
            self.tracks.insert(
                id,
                OracleTrack {
                    last_frame: frame,
                    bbox,
                },
            );
            out.push(id);
        }
        out
    }
}

fn bx(x: f64, y: f64, w: f64) -> BBox2D {
    BBox2D::new(x, y, x + w, y + w).unwrap()
}

/// A seeded frame sequence with non-decreasing frame numbers: drifting
/// objects that sometimes flicker out, exact duplicates (exact IoU
/// ties), random clutter, empty frames, repeated frame numbers and gaps
/// longer than `max_age`. About one frame in four starts a run of
/// crowded frames (128–300 boxes), enough for the matcher's grid index
/// once the previous frame left as many live tracks.
fn frame_sequence(seed: u64, max_age: usize) -> Vec<(usize, Vec<BBox2D>)> {
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
                dets.push(bx(x, y, w));
            }
            if rng.gen_bool(0.05) {
                // The same box twice in one frame: exact IoU ties.
                dets.push(bx(x, y, w));
            }
        }
        if target > 0 && rng.gen_bool(0.3) {
            let w = rng.gen_range(4.0..30.0);
            dets.push(bx(rng.gen_range(0.0..600.0), rng.gen_range(0.0..600.0), w));
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
fn crowd_sequence(seed: u64, n_frames: usize) -> Vec<Vec<BBox2D>> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Position, velocity and size, then copies per frame: 80 clusters of
    // 5, then 600 lone boxes.
    let mut drifters: Vec<([f64; 5], usize)> = (0..680)
        .map(|i| {
            let state = [
                rng.gen_range(0.0..1280.0),
                rng.gen_range(0.0..648.0),
                rng.gen_range(-6.0..6.0),
                rng.gen_range(-6.0..6.0),
                rng.gen_range(25.0..90.0),
            ];
            (state, if i < 80 { 5 } else { 1 })
        })
        .collect();
    (0..n_frames)
        .map(|_| {
            let mut dets = Vec::with_capacity(1000);
            for ([x, y, vx, vy, w], copies) in &mut drifters {
                *x = (*x + *vx + rng.gen_range(-1.0..1.0)).rem_euclid(1280.0);
                *y += *vy + rng.gen_range(-1.0..1.0);
                dets.extend(std::iter::repeat(bx(*x, *y, *w)).take(*copies));
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

/// Reorders one scan's pairs as far as the scan contract allows: the
/// anchor groups in a random order, and the pairs inside each group
/// shuffled.
fn regroup(pairs: &mut Vec<(f64, usize, usize)>, rng: &mut StdRng) {
    let mut groups: Vec<&[(f64, usize, usize)]> = pairs.chunk_by(|a, b| a.1 == b.1).collect();
    groups.shuffle(rng);
    let mut out: Vec<(f64, usize, usize)> = Vec::with_capacity(pairs.len());
    for group in groups {
        let from = out.len();
        out.extend_from_slice(group);
        out[from..].shuffle(rng);
    }
    *pairs = out;
}

/// `assign_with` over one frame, with a scan that answers from the
/// reference and asserts that it is asked for `previous` (the previous
/// call's boxes, bit for bit) against this frame's boxes; with `rng`, it
/// then reorders its answer (`regroup`). Returns the ids and the number
/// of anchors the scan was given, if it was called.
fn assign_with_reference_scan(
    associator: &mut IouAssociator,
    frame: usize,
    boxes: &[BBox2D],
    previous: &[BBox2D],
    rng: Option<&mut StdRng>,
) -> (Vec<TrackId>, Option<usize>) {
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
                    same_bits(queries, boxes),
                    "queries are not this call's boxes"
                );
                scanned = Some(anchors.len());
                reference::iou_pairs(anchors, queries, thr, out);
                if let Some(rng) = rng {
                    regroup(out, rng);
                }
            },
        )
        .to_vec();
    (ids, scanned)
}

proptest! {
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
            let got = associator.assign(frame, dets.iter().copied()).to_vec();
            prop_assert_eq!(got, oracle.update(frame, &dets));
        }
        prop_assert_eq!(associator.num_tracks(), oracle.tracks.len());
    }

    /// The associator with a caller's scan, which answers from the
    /// reference, issues the oracle's ids frame by frame: a split step's
    /// re-keyed pairs plus the older tracks' match as one scan's do.
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
            let (got, _) =
                assign_with_reference_scan(&mut associator, frame, &dets, &previous, None);
            prop_assert_eq!(got, oracle.update(frame, &dets));
            previous = dets;
        }
        prop_assert_eq!(associator.num_tracks(), oracle.tracks.len());
    }

    /// The associator with a scan that answers from the reference and
    /// then reorders its answer as the scan contract allows (anchor
    /// groups and the pairs inside each group permuted) issues the
    /// oracle's ids frame by frame: the matching reads no order the
    /// contract does not promise.
    #[test]
    fn associator_with_a_regrouped_scan_matches_btree_oracle(
        seed in any::<u64>(),
        threshold in 0usize..THRESHOLDS.len(),
        max_age in 0usize..4,
    ) {
        let threshold = THRESHOLDS[threshold];
        let mut associator = IouAssociator::new(threshold, max_age);
        let mut oracle = OracleTracker::new(threshold, max_age);
        let mut rng = StdRng::seed_from_u64(!seed);
        let mut previous: Vec<BBox2D> = Vec::new();
        for (frame, dets) in frame_sequence(seed, max_age) {
            let (got, _) = assign_with_reference_scan(
                &mut associator,
                frame,
                &dets,
                &previous,
                Some(&mut rng),
            );
            prop_assert_eq!(got, oracle.update(frame, &dets));
            previous = dets;
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
                .assign(frame, dets)
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
}

/// Whether `assign_with` over `seq` makes a split step while older
/// tracks are live too, and a single-scan step with live tracks and
/// boxes, and whether the oracle sees a displacement, at threshold
/// 0.25.
fn step_kinds(seq: &[(usize, Vec<BBox2D>)], max_age: usize) -> [bool; 3] {
    let mut associator = IouAssociator::new(0.25, max_age);
    let mut oracle = OracleTracker::new(0.25, max_age);
    let mut previous: Vec<BBox2D> = Vec::new();
    let (mut split_with_older, mut single) = (false, false);
    for (frame, dets) in seq {
        let live = oracle
            .live
            .iter()
            .filter(|id| frame.saturating_sub(oracle.tracks[id].last_frame) <= max_age)
            .count();
        match assign_with_reference_scan(&mut associator, *frame, dets, &previous, None).1 {
            Some(recent) => split_with_older |= live > recent,
            None => single |= live > 0 && !dets.is_empty(),
        }
        oracle.update(*frame, dets);
        previous.clone_from(dets);
    }
    [split_with_older, single, oracle.displacements > 0]
}

/// The sequence generator reaches the grid index (both sides of an
/// association at or above 128 boxes), split steps with older tracks
/// live, single-scan steps and displacements (a track whose best
/// candidate query goes to a better pair), and each promised edge case
/// in a good share of sequences, so the properties' 64 random seeds
/// cover them all.
#[test]
fn frame_sequences_cover_the_promised_cases() {
    let mut counts = [0usize; 8];
    let seeds = 256;
    for seed in 0..seeds {
        let max_age = (seed % 4) as usize;
        let seq = frame_sequence(seed, max_age);
        let pairs = || seq.windows(2);
        let [split_with_older, single, displaced] = step_kinds(&seq, max_age);
        let has = [
            split_with_older,
            single,
            displaced,
            pairs().any(|w| w[0].1.len() >= 128 && w[1].1.len() >= 128),
            seq.iter().any(|(_, d)| d.is_empty()),
            pairs().any(|w| w[0].0 == w[1].0),
            pairs().any(|w| w[1].0 - w[0].0 > max_age + 1),
            seq.iter()
                .any(|(_, d)| d.iter().enumerate().any(|(i, a)| d[..i].contains(a))),
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
/// (`crowd_sequence`) through the associator and the associator with a
/// reference scan (a split step on every frame after the first) against
/// the oracle, at the video preparer's association
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
        let mut oracle = OracleTracker::new(threshold, 3);
        let mut previous: Vec<BBox2D> = Vec::new();
        for (frame, dets) in frames.iter().enumerate() {
            assert_eq!(dets.len(), 1000);
            let want = oracle.update(frame, dets);
            let got = associator.assign(frame, dets.iter().copied());
            let at = format!("at {threshold}, frame {frame}");
            assert_eq!(first_diff(got, &want), None, "associator {at}");
            let (got, scanned) =
                assign_with_reference_scan(&mut split, frame, dets, &previous, None);
            assert_eq!(scanned.is_some(), frame > 0, "split step {at}");
            assert_eq!(first_diff(&got, &want), None, "associator with a scan {at}");
            previous.clone_from(dets);
        }
        assert!(oracle.tracks.len() < 1100, "{} tracks", oracle.tracks.len());
        assert_eq!(associator.num_tracks(), oracle.tracks.len());
        assert_eq!(split.num_tracks(), oracle.tracks.len());
    }
}

/// The worst case of deferred acceptance, pinned: frame 0 holds `n`
/// boxes `[0, 0, 100 + 0.05a, 100]`, frame 1 `n` boxes
/// `[0.02q, 0, 200 + 0.02q, 100]`. Every pair clears 0.25; the IoU falls
/// with the query index and rises with the track's, so every track
/// ranks query 0 first and every query ranks the highest track first.
/// In live order, each new track takes query 0 and displaces a chain of
/// every earlier track, each moving one query on, and the matching is
/// the reversal: box `q` keeps track `n - 1 - q`.
#[test]
fn displacement_chain_matches_btree_oracle() {
    const N: usize = 300;
    let tracks: Vec<BBox2D> = (0..N)
        .map(|a| BBox2D::new(0.0, 0.0, 100.0 + 0.05 * a as f64, 100.0).unwrap())
        .collect();
    let boxes: Vec<BBox2D> = (0..N)
        .map(|q| {
            let x = 0.02 * q as f64;
            BBox2D::new(x, 0.0, 200.0 + x, 100.0).unwrap()
        })
        .collect();
    let mut pairs = Vec::new();
    reference::iou_pairs(&tracks, &boxes, 0.25, &mut pairs);
    assert_eq!(pairs.len(), N * N, "every pair clears 0.25");
    let mut oracle = OracleTracker::new(0.25, 1);
    let mut associator = IouAssociator::new(0.25, 1);
    let mut split = IouAssociator::new(0.25, 1);
    let created = oracle.update(0, &tracks);
    assert_eq!(associator.assign(0, tracks.iter().copied()), created);
    assert_eq!(
        assign_with_reference_scan(&mut split, 0, &tracks, &[], None).0,
        created
    );
    let want = oracle.update(1, &boxes);
    let reversal: Vec<TrackId> = (0..N as u64).rev().map(TrackId).collect();
    assert_eq!(want, reversal, "box 0 keeps track {}", N - 1);
    assert_eq!(associator.assign(1, boxes.iter().copied()), want);
    let (got, scanned) = assign_with_reference_scan(&mut split, 1, &boxes, &tracks, None);
    assert_eq!(scanned, Some(N), "a split step");
    assert_eq!(got, want);
}

/// A frame earlier than one already recorded panics in the associator
/// exactly when the oracle's does: only while a track is live, and
/// measured against the latest frame of any track, not the latest
/// update.
#[test]
fn out_of_order_frames_panic_like_the_oracle() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let sequences: [&[(usize, usize)]; 3] = [
        &[(0, 1), (5, 1), (5, 0), (3, 1)],
        &[(0, 1), (9, 0), (4, 1)],
        &[(0, 1), (9, 0), (4, 1), (3, 1)],
    ];
    for seq in sequences {
        let mut associator = IouAssociator::new(0.3, 2);
        let mut oracle = OracleTracker::new(0.3, 2);
        for &(frame, n) in seq {
            let dets = vec![bx(0.0, 0.0, 10.0); n];
            let assigned = catch_unwind(AssertUnwindSafe(|| {
                associator.assign(frame, dets.iter().copied()).to_vec()
            }));
            let want = catch_unwind(AssertUnwindSafe(|| oracle.update(frame, &dets)));
            assert_eq!(assigned.is_err(), want.is_err(), "{seq:?} at frame {frame}");
            match (assigned, want) {
                (Ok(assigned), Ok(want)) => assert_eq!(assigned, want),
                _ => break,
            }
        }
    }
}
