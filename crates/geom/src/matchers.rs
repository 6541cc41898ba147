//! Indexed box matchers.
//!
//! The paper's geometric assertions need three box matchers, and every
//! pairwise matcher in the workspace routes through them:
//! [`iou_pairs`] (tracker association behind `flicker`/`appear`),
//! [`overlap_triples`] (`multibox` duplicate clusters) and
//! [`count_unmatched`] (`agree` and highway fusion agreement). Each
//! picks one of two paths from its input, and both produce
//! **bit-for-bit identical** output:
//!
//! * an *indexed* path that builds a [`GridIndex2D`] and only scores
//!   candidate pairs whose AABBs intersect — near-linear in crowded
//!   scenes;
//! * the O(n²) *reference* path in [`crate::reference`], taken below
//!   [`INDEX_MIN`] boxes and for thresholds the grid cannot serve.
//!
//! # Why candidate lookup is exact, not approximate
//!
//! A pair can only match when its IoU clears a positive threshold, and
//! positive IoU requires intersecting AABBs — exactly the pairs the grid
//! returns (see [`crate::grid`]). The indexed matchers therefore compute
//! the very same IoU values on the very same surviving pairs, in the
//! same deterministic order, as the reference scans. When that argument
//! does not hold — a zero, negative or NaN threshold, where even
//! disjoint pairs "match" — the matchers detect it and fall back to the
//! reference automatically. Tests check the claim by calling both
//! modules on the same input.

use crate::grid::GridIndex2D;
use crate::{reference, BBox2D};

/// Below this many boxes the matchers skip the grid and run the
/// reference scan directly. Street, AV and highway frames hold tens of
/// boxes, where building an index costs more than the IoU calls it
/// would save; crowd frames hold hundreds to thousands, where the scan
/// is quadratic. The cutoff sits between the two, below the crowded
/// benchmark's 300 and 1,000 boxes per frame, so only crowd frames take
/// the grid. Both paths are exact, so this is purely a performance
/// cutoff.
pub const INDEX_MIN: usize = 128;

/// Whether a matcher over `pairs` candidate pairs with the predicate
/// `iou >= thr` takes the indexed path: only from `INDEX_MIN²` pairs
/// (`INDEX_MIN` boxes for a one-set matcher), and only when matching
/// implies a positive-area intersection, or grid candidate lookup would
/// miss "matching" disjoint pairs. NaN thresholds fail `thr > 0.0` and
/// fall back.
fn indexed(pairs: usize, thr: f64) -> bool {
    pairs >= INDEX_MIN * INDEX_MIN && thr > 0.0
}

/// Replaces the contents of `pairs` with every `(iou, anchor_idx,
/// query_idx)` pair whose IoU is at or above `iou_threshold`, sorted by
/// ascending `(anchor_idx, query_idx)` — identical to
/// [`reference::iou_pairs`] in content *and* order (the grid returns
/// candidates in ascending index order). The tracker's greedy
/// detection-to-track association consumes this, reusing one buffer
/// across frames.
pub fn iou_pairs(
    anchors: &[BBox2D],
    queries: &[BBox2D],
    iou_threshold: f64,
    pairs: &mut Vec<(f64, usize, usize)>,
) {
    if !indexed(anchors.len() * queries.len(), iou_threshold) {
        return reference::iou_pairs(anchors, queries, iou_threshold, pairs);
    }
    pairs.clear();
    let grid = GridIndex2D::build(queries);
    let mut cands: Vec<usize> = Vec::new();
    for (ai, a) in anchors.iter().enumerate() {
        grid.candidates_overlapping(a, &mut cands);
        for &qi in &cands {
            // PANIC: qi comes from GridIndex2D built over `queries`.
            let iou = a.iou(&queries[qi]);
            if iou >= iou_threshold {
                pairs.push((iou, ai, qi));
            }
        }
    }
}

/// Counts triples `i < j < k` of same-class boxes that pairwise overlap
/// at or above `iou_threshold` (the `multibox` duplicate-cluster
/// condition); identical to [`reference::overlap_triples`].
///
/// # Panics
///
/// Panics if `boxes` and `classes` have different lengths.
pub fn overlap_triples(boxes: &[BBox2D], classes: &[usize], iou_threshold: f64) -> usize {
    assert_eq!(
        boxes.len(),
        classes.len(),
        "boxes and classes must be the same length"
    );
    if !indexed(boxes.len() * boxes.len(), iou_threshold) {
        return reference::overlap_triples(boxes, classes, iou_threshold);
    }
    let grid = GridIndex2D::build(boxes);
    let mut triples = 0;
    let mut cands: Vec<usize> = Vec::new();
    let mut nbrs: Vec<usize> = Vec::new();
    // PANIC: i ranges over 0..boxes.len(), j comes from GridIndex2D
    // over these boxes, and `classes` length is asserted equal above.
    for i in 0..boxes.len() {
        grid.candidates_overlapping(&boxes[i], &mut cands);
        // Neighbors of i with a larger index: each triple is counted
        // exactly once, anchored at its smallest member.
        nbrs.clear();
        for &j in &cands {
            if j > i && classes[j] == classes[i] && boxes[i].iou(&boxes[j]) >= iou_threshold {
                nbrs.push(j);
            }
        }
        // PANIC: nbrs holds grid indices; a < nbrs.len() so the range
        // slice and the j/k subscripts are in bounds.
        for (a, &j) in nbrs.iter().enumerate() {
            for &k in &nbrs[a + 1..] {
                if boxes[j].iou(&boxes[k]) >= iou_threshold {
                    triples += 1;
                }
            }
        }
    }
    triples
}

/// Counts the queries that overlap **no** target at or above
/// `iou_threshold` (the `no_overlap` sensor-agreement predicate over a
/// batch); identical to [`reference::count_unmatched`].
pub fn count_unmatched(queries: &[BBox2D], targets: &[BBox2D], iou_threshold: f64) -> usize {
    if !indexed(queries.len() * targets.len(), iou_threshold) {
        return reference::count_unmatched(queries, targets, iou_threshold);
    }
    let grid = GridIndex2D::build(targets);
    let mut cands: Vec<usize> = Vec::new();
    let mut unmatched = 0;
    for q in queries {
        grid.candidates_overlapping(q, &mut cands);
        // PANIC: t comes from GridIndex2D built over `targets`.
        if cands.iter().all(|&t| q.iou(&targets[t]) < iou_threshold) {
            unmatched += 1;
        }
    }
    unmatched
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic scene generator (tiny LCG; geom has no dev-deps).
    fn scene(seed: u64, n: usize, span: f64, size: f64) -> Vec<BBox2D> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let x = next() * span;
                let y = next() * span;
                let w = size * (0.5 + next());
                let h = size * (0.5 + next());
                BBox2D::new(x, y, x + w, y + h).unwrap()
            })
            .collect()
    }

    /// An `iou_pairs` form: the indexed matcher or its reference.
    type PairsForm = fn(&[BBox2D], &[BBox2D], f64, &mut Vec<(f64, usize, usize)>);

    /// The pairs an `iou_pairs` form writes into a buffer that starts
    /// out holding a stale pair, so a form that appends without
    /// clearing fails the comparison.
    fn pairs_of(
        form: PairsForm,
        anchors: &[BBox2D],
        queries: &[BBox2D],
        thr: f64,
    ) -> Vec<(f64, usize, usize)> {
        let mut pairs = vec![(f64::NAN, usize::MAX, usize::MAX)];
        form(anchors, queries, thr, &mut pairs);
        pairs
    }

    /// Asserts the three matchers equal their references on `boxes`
    /// (with `others` as the second set of the two-set matchers).
    fn assert_equal_to_reference(boxes: &[BBox2D], others: &[BBox2D], thr: f64) {
        let classes: Vec<usize> = (0..boxes.len()).map(|i| i % 3).collect();
        assert_eq!(
            pairs_of(iou_pairs, boxes, others, thr),
            pairs_of(reference::iou_pairs, boxes, others, thr)
        );
        assert_eq!(
            overlap_triples(boxes, &classes, thr),
            reference::overlap_triples(boxes, &classes, thr)
        );
        assert_eq!(
            count_unmatched(boxes, others, thr),
            reference::count_unmatched(boxes, others, thr)
        );
    }

    #[test]
    fn indexed_matchers_match_reference_on_crowded_scene() {
        let boxes = scene(7, 300, 500.0, 20.0);
        let classes: Vec<usize> = (0..boxes.len()).map(|i| i % 3).collect();
        let others = scene(8, 250, 500.0, 20.0);

        assert_eq!(
            pairs_of(iou_pairs, &boxes, &others, 0.1),
            pairs_of(reference::iou_pairs, &boxes, &others, 0.1)
        );
        assert_eq!(
            overlap_triples(&boxes, &classes, 0.3),
            reference::overlap_triples(&boxes, &classes, 0.3)
        );
        assert_eq!(
            count_unmatched(&boxes, &others, 0.1),
            reference::count_unmatched(&boxes, &others, 0.1)
        );
    }

    #[test]
    fn degenerate_thresholds_fall_back_to_reference() {
        // iou >= 0.0 matches even disjoint pairs; the indexed path must
        // not be used, and results must still agree with the reference.
        // Sized above INDEX_MIN so the threshold guard (not the size
        // cutoff) is what forces the fallback.
        let a = scene(1, 150, 300.0, 10.0);
        let b = scene(2, 150, 300.0, 10.0);
        assert_eq!(
            pairs_of(iou_pairs, &a, &b, 0.0).len(),
            a.len() * b.len(),
            "zero threshold keeps every pair"
        );
        assert_eq!(count_unmatched(&a, &b, 0.0), 0);
        assert_eq!(count_unmatched(&a, &b, -1.0), 0);
        assert_eq!(
            pairs_of(iou_pairs, &a, &b, f64::NAN),
            pairs_of(reference::iou_pairs, &a, &b, f64::NAN)
        );
    }

    #[test]
    fn all_identical_boxes_agree() {
        // Above INDEX_MIN so the indexed path runs with every box in
        // the same handful of cells.
        let boxes = vec![BBox2D::new(0.0, 0.0, 10.0, 10.0).unwrap(); 150];
        let classes = vec![0usize; 150];
        assert_eq!(
            overlap_triples(&boxes, &classes, 0.3),
            reference::overlap_triples(&boxes, &classes, 0.3)
        );
        // C(150, 3) identical-box triples.
        assert_eq!(overlap_triples(&boxes, &classes, 0.3), 551_300);
    }

    #[test]
    fn zero_area_boxes_agree() {
        let mut boxes = scene(9, 160, 200.0, 12.0);
        for i in 0..40 {
            let p = f64::from(i) * 3.0;
            boxes.push(BBox2D::new(p, p, p, p).unwrap());
        }
        let classes = vec![0usize; boxes.len()];
        assert_eq!(
            overlap_triples(&boxes, &classes, 0.3),
            reference::overlap_triples(&boxes, &classes, 0.3)
        );
    }

    #[test]
    fn boxes_wider_than_f64_agree() {
        // A valid box whose width or height overflows f64 makes the
        // grid's median extent or bounds infinite, and with them its
        // cell edge; the grid must collapse to one cell, not panic.
        let street = scene(3, 130, 600.0, 40.0);
        let wide = BBox2D::new(-1e308, 0.0, 1e308, 10.0).unwrap();
        let tall = BBox2D::new(0.0, -1e308, 10.0, 1e308).unwrap();
        let mut with_wide = street.clone();
        with_wide.push(wide);
        let mut with_tall = street.clone();
        with_tall.push(tall);
        // Most boxes overflow: the median extent itself is infinite.
        let mut mostly_wide = street[..50].to_vec();
        mostly_wide.extend((0..200).map(|i| if i % 2 == 0 { wide } else { tall }));
        for boxes in [&with_wide, &with_tall, &mostly_wide] {
            for thr in [0.1, 0.5] {
                assert_equal_to_reference(boxes, boxes, thr);
            }
        }
        // The overflow box's IoU with itself is inf/inf = NaN and with a
        // street box is finite/inf = 0, so it adds no pair.
        assert_eq!(
            pairs_of(iou_pairs, &with_wide, &with_wide, 0.5),
            pairs_of(iou_pairs, &street, &street, 0.5)
        );
    }
}
