//! O(n²) pairwise reference matchers.
//!
//! These are the original all-pairs scans the spatial index replaced.
//! They stay alive — and exported — for three reasons:
//!
//! 1. **Equivalence oracle.** The property suite and the registry-driven
//!    engine tests assert that every indexed matcher in
//!    [`crate::matchers`] produces bit-for-bit identical output to the
//!    function of the same name here.
//! 2. **Benchmark baseline.** `exp_throughput --crowded` times both
//!    backends so the asymptotic win is a recorded curve, not a claim.
//! 3. **Fallback.** The indexed paths delegate here for tiny inputs
//!    (grid build costs more than it saves) and for degenerate
//!    thresholds where "overlaps above the threshold" no longer implies
//!    "intersects" and grid candidate lookup would be unsound.
//!
//! This module is the **only** place outside test code where raw
//! pairwise IoU loops are allowed; `omg-lint` pins every `.iou(` /
//! `.iou_bev_aabb(` call site outside `crates/geom/` to a counted
//! ledger so O(n²) scans cannot silently reappear elsewhere.

use crate::BBox2D;

/// Indices `0..scores.len()` sorted by descending score, ties broken by
/// ascending index.
///
/// Uses [`f64::total_cmp`], so the order is total and deterministic even
/// for NaN scores (NaN sorts first, like an infinite score) — both NMS
/// backends and the tracker's greedy matcher share this ordering, which
/// is what makes their outputs comparable bit for bit.
pub fn score_order(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // PANIC: a and b are drawn from 0..scores.len() just above.
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order
}

/// Pairwise-scan greedy NMS: the reference for
/// [`crate::nms::nms_indices`]. Suppresses a box whose IoU with an
/// already-kept box exceeds `iou_threshold`; returns kept indices in
/// descending-score order.
///
/// # Panics
///
/// Panics if `boxes` and `scores` have different lengths.
pub fn nms_indices(boxes: &[BBox2D], scores: &[f64], iou_threshold: f64) -> Vec<usize> {
    assert_eq!(
        boxes.len(),
        scores.len(),
        "boxes and scores must be the same length"
    );
    let mut kept: Vec<usize> = Vec::new();
    // PANIC: i and k come from score_order, a permutation of 0..len;
    // boxes/scores lengths are asserted equal above.
    for i in score_order(scores) {
        let suppressed = kept
            .iter()
            .any(|&k| boxes[k].iou(&boxes[i]) > iou_threshold);
        if !suppressed {
            kept.push(i);
        }
    }
    kept
}

/// Pairwise-scan class-aware greedy NMS: the reference for
/// [`crate::nms::nms_indices_per_class`].
///
/// # Panics
///
/// Panics if the three slices have different lengths.
pub fn nms_indices_per_class(
    boxes: &[BBox2D],
    scores: &[f64],
    classes: &[usize],
    iou_threshold: f64,
) -> Vec<usize> {
    assert_eq!(
        boxes.len(),
        scores.len(),
        "boxes and scores must be the same length"
    );
    assert_eq!(
        boxes.len(),
        classes.len(),
        "boxes and classes must be the same length"
    );
    let mut kept: Vec<usize> = Vec::new();
    // PANIC: i and k come from score_order, a permutation of 0..len;
    // boxes/scores/classes lengths are asserted equal above.
    for i in score_order(scores) {
        let suppressed = kept
            .iter()
            .any(|&k| classes[k] == classes[i] && boxes[k].iou(&boxes[i]) > iou_threshold);
        if !suppressed {
            kept.push(i);
        }
    }
    kept
}

/// Replaces the contents of `pairs` with every `(iou, anchor_idx,
/// query_idx)` pair whose IoU is at or above `iou_threshold`, anchors
/// outer / queries inner (so the list is sorted by ascending
/// `(anchor_idx, query_idx)`). The reference for
/// [`crate::matchers::iou_pairs`]; the tracker's greedy association is
/// built on this.
pub fn iou_pairs(
    anchors: &[BBox2D],
    queries: &[BBox2D],
    iou_threshold: f64,
    pairs: &mut Vec<(f64, usize, usize)>,
) {
    pairs.clear();
    for (ai, a) in anchors.iter().enumerate() {
        for (qi, q) in queries.iter().enumerate() {
            let iou = a.iou(q);
            if iou >= iou_threshold {
                pairs.push((iou, ai, qi));
            }
        }
    }
}

/// Counts triples `i < j < k` of same-class boxes that pairwise overlap
/// at or above `iou_threshold` — the paper's `multibox` condition
/// ("three boxes highly overlap"). The reference for
/// [`crate::matchers::overlap_triples`].
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
    let n = boxes.len();
    let mut triples = 0;
    // PANIC: i, j, k all range inside 0..n = boxes.len(), and the
    // classes length is asserted equal above.
    for i in 0..n {
        for j in (i + 1)..n {
            if classes[i] != classes[j] || boxes[i].iou(&boxes[j]) < iou_threshold {
                continue;
            }
            // PANIC: k < n = boxes.len() = classes.len().
            for k in (j + 1)..n {
                if classes[k] == classes[i]
                    && boxes[i].iou(&boxes[k]) >= iou_threshold
                    && boxes[j].iou(&boxes[k]) >= iou_threshold
                {
                    triples += 1;
                }
            }
        }
    }
    triples
}

/// Counts the queries that overlap **no** target at or above
/// `iou_threshold` — the paper's `no_overlap` sensor-agreement predicate,
/// counted over a batch. The reference for
/// [`crate::matchers::count_unmatched`].
pub fn count_unmatched(queries: &[BBox2D], targets: &[BBox2D], iou_threshold: f64) -> usize {
    queries
        .iter()
        .filter(|q| targets.iter().all(|t| q.iou(t) < iou_threshold))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x: f64, y: f64, s: f64) -> BBox2D {
        BBox2D::new(x, y, x + s, y + s).unwrap()
    }

    #[test]
    fn score_order_is_total_and_deterministic() {
        assert_eq!(score_order(&[0.1, 0.9, 0.5]), vec![1, 2, 0]);
        // Ties break by index.
        assert_eq!(score_order(&[0.5, 0.5, 0.5]), vec![0, 1, 2]);
        // NaN sorts like an infinite score, deterministically.
        let with_nan = score_order(&[0.5, f64::NAN, 0.9, f64::NAN]);
        assert_eq!(with_nan, vec![1, 3, 2, 0]);
        assert!(score_order(&[]).is_empty());
    }

    #[test]
    fn iou_pairs_order_and_threshold() {
        let anchors = vec![bb(0.0, 0.0, 10.0), bb(100.0, 0.0, 10.0)];
        let queries = vec![
            bb(1.0, 0.0, 10.0),
            bb(101.0, 0.0, 10.0),
            bb(50.0, 50.0, 10.0),
        ];
        let mut pairs = vec![(0.0, 9, 9)];
        iou_pairs(&anchors, &queries, 0.3, &mut pairs);
        let idx: Vec<(usize, usize)> = pairs.iter().map(|p| (p.1, p.2)).collect();
        assert_eq!(idx, vec![(0, 0), (1, 1)]);
        assert!(pairs.iter().all(|p| p.0 >= 0.3));
    }

    #[test]
    fn overlap_triples_matches_combinatorics() {
        let cluster = vec![bb(0.0, 0.0, 10.0), bb(1.0, 0.0, 10.0), bb(2.0, 0.0, 10.0)];
        let classes = vec![0, 0, 0];
        assert_eq!(overlap_triples(&cluster, &classes, 0.3), 1);
        assert_eq!(overlap_triples(&cluster, &[0, 1, 0], 0.3), 0);
        assert_eq!(overlap_triples(&[], &[], 0.3), 0);
    }

    #[test]
    fn count_unmatched_counts() {
        let queries = vec![bb(0.0, 0.0, 10.0), bb(50.0, 0.0, 10.0)];
        let targets = vec![bb(1.0, 0.0, 10.0)];
        assert_eq!(count_unmatched(&queries, &targets, 0.3), 1);
        assert_eq!(count_unmatched(&queries, &[], 0.3), 2);
        assert_eq!(count_unmatched(&[], &targets, 0.3), 0);
    }
}
