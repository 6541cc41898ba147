//! O(n²) pairwise reference matchers.
//!
//! These are the original all-pairs scans the spatial index replaced,
//! one for each matcher in [`crate::matchers`]: [`iou_pairs`],
//! [`overlap_triples`] and [`count_unmatched`]. They stay alive — and
//! exported — for three reasons:
//!
//! 1. **Equivalence oracle.** The property suite, the matcher unit
//!    tests and the crowd-frame tests assert that every indexed matcher
//!    in [`crate::matchers`] produces bit-for-bit identical output to
//!    the function of the same name here.
//! 2. **Benchmark baseline.** `exp_throughput --crowded` times each
//!    crowd window's matcher calls through both modules, so the
//!    asymptotic win is a recorded curve, not a claim.
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
