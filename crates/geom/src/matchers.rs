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
//! * an *indexed* path that only scores pairs whose AABBs could
//!   intersect — near-linear in crowded scenes. The two-set matchers
//!   build a [`GridIndex2D`] over one set and query it with the other;
//!   `overlap_triples`, a self-join, sorts its boxes along one axis and
//!   sweeps them instead;
//! * the O(n²) *reference* path in [`crate::reference`], taken below
//!   [`INDEX_MIN`] boxes and for thresholds the indexed path cannot
//!   serve.
//!
//! # Why candidate lookup is exact, not approximate
//!
//! A pair can only match when its IoU clears a positive threshold, and
//! positive IoU requires AABBs that intersect, touching edges included,
//! on both axes. The grid returns exactly the boxes whose AABB
//! intersects a query (see [`crate::grid`]); `iou_pairs` puts each
//! anchor's matches in query order, so its list comes out in the
//! reference's order. The sweep visits every same-class pair that
//! overlaps along its axis, a superset of the pairs that can match, and
//! tests each with the reference's predicate, lower index as the
//! receiver. The indexed matchers therefore compute the very same IoU
//! values on the very same surviving pairs as the reference scans. When
//! that argument does not hold — a zero, negative or NaN threshold,
//! where even disjoint pairs "match" — the matchers detect it and fall
//! back to the reference automatically. Tests check the claim by
//! calling both modules on the same input.
//!
//! # Why a sweep for the triples and a grid for the pairs
//!
//! The grid's cost on crowd frames is its own candidate walk, not the
//! IoU it saves, and a self-join through it queries every box and then
//! drops the candidates below it. Such a filter keeps few of its
//! candidates in no predictable pattern, so its cost is mispredicted
//! branches rather than memory: the grid walk, `iou_pairs`' keep and the
//! sweep's two filters write every candidate and advance their length on
//! the keep, with no branch on it. `overlap_triples` instead sorts each
//! class's boxes by lower edge along the axis the boxes cover more
//! sparsely (summed extent over the bounds' span), visits each pair that
//! overlaps along it once, keeps the matching pairs as edges in a CSR
//! adjacency (one flat run of higher-id neighbours per box) and counts
//! the edges' triangles. The axis choice only changes speed: a column of
//! boxes sharing one x-range sweeps in y, a row of tall thin stacks in
//! x. Between two sets the sweep measured slower than the grid, so
//! `iou_pairs` and `count_unmatched` keep the grid.

use crate::grid::{extend_kept, write_kept, GridIndex2D};
use crate::{reference, BBox2D};

/// Below this many boxes the matchers skip their indexed paths (the
/// grid, the sweep) and run the reference scan directly. Street, AV and
/// highway frames hold tens of boxes, where building an index costs more
/// than the IoU calls it would save; crowd frames hold hundreds to
/// thousands, where the scan is quadratic. The cutoff sits between the
/// two, below the crowded benchmark's 300 and 1,000 boxes per frame, so
/// only crowd frames take an indexed path. Both paths are exact, so this
/// is purely a performance cutoff.
pub const INDEX_MIN: usize = 128;

/// Whether a matcher over `pairs` candidate pairs with the predicate
/// `iou >= thr` takes the indexed path: only from `INDEX_MIN²` pairs
/// (`INDEX_MIN` boxes for a one-set matcher), and only when matching
/// implies a positive-area intersection, or candidate lookup (grid or
/// sweep) would miss "matching" disjoint pairs. NaN thresholds fail
/// `thr > 0.0` and fall back.
fn indexed(pairs: usize, thr: f64) -> bool {
    pairs >= INDEX_MIN * INDEX_MIN && thr > 0.0
}

/// Replaces the contents of `pairs` with every `(iou, anchor_idx,
/// query_idx)` pair whose IoU is at or above `iou_threshold`, sorted by
/// ascending `(anchor_idx, query_idx)` — identical to
/// [`reference::iou_pairs`] in content *and* order (anchors are taken
/// in order, and each anchor's matches are sorted by query index). The
/// tracker's greedy detection-to-track association consumes this,
/// reusing one buffer across frames.
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
        let from = pairs.len();
        // A missing query (none: the grid reports indices into
        // `queries`) scores NaN, which no threshold keeps.
        let scored = cands.iter().map(|&qi| {
            let iou = queries.get(qi).map_or(f64::NAN, |q| a.iou(q));
            ((iou, ai, qi), iou >= iou_threshold)
        });
        extend_kept(pairs, scored);
        // The grid's candidates come in no set order; this anchor's few
        // matches are put in query order here.
        if let Some(matched) = pairs.get_mut(from..) {
            matched.sort_unstable_by_key(|&(_, _, qi)| qi);
        }
    }
}

/// Counts triples `i < j < k` of same-class boxes that pairwise overlap
/// at or above `iou_threshold` (the `multibox` duplicate-cluster
/// condition); identical to [`reference::overlap_triples`].
///
/// From [`INDEX_MIN`] boxes (with a positive threshold) it runs a
/// sort-and-sweep self-join: each class's boxes sorted by lower edge
/// along the axis the boxes cover more sparsely, each pair that overlaps
/// along it visited once, the matching pairs kept as edges, and the
/// triangles of that graph counted (see the [module docs](self)).
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
    let edges = matching_edges(boxes, classes, iou_threshold);
    count_triangles(boxes.len(), &edges)
}

/// The triangles of the graph on `n` nodes whose edges are `edges`, each
/// `(lo, hi)` with `lo < hi` and listed once. The edges go into a CSR
/// adjacency, `starts[i]..starts[i + 1]` being node i's run of
/// higher-id neighbours in `nbrs`: count each node's run, prefix-sum the
/// counts into run ends, then fill each run back to front.
fn count_triangles(n: usize, edges: &[(usize, usize)]) -> usize {
    let mut starts = vec![0; n + 1];
    for &(lo, _) in edges {
        if let Some(count) = starts.get_mut(lo) {
            *count += 1;
        }
    }
    let mut total = 0;
    for end in &mut starts {
        total += *end;
        *end = total;
    }
    let mut nbrs = vec![0; total];
    for &(lo, hi) in edges {
        if let Some(end) = starts.get_mut(lo) {
            *end -= 1;
            if let Some(slot) = nbrs.get_mut(*end) {
                *slot = hi;
            }
        }
    }
    let run = |from: usize, to: usize| nbrs.get(from..to).unwrap_or_default();
    let neighbours = |i: usize| match (starts.get(i), starts.get(i + 1)) {
        (Some(&from), Some(&to)) => run(from, to),
        _ => &[],
    };
    // Each triangle i < j < k is counted once, at its edge (i, j): k is
    // a neighbour of j that i marked as its own.
    let mut marked_by = vec![usize::MAX; n];
    let mut triangles = 0;
    for (i, (&from, &to)) in starts.iter().zip(starts.iter().skip(1)).enumerate() {
        let mine = run(from, to);
        for &j in mine {
            if let Some(mark) = marked_by.get_mut(j) {
                *mark = i;
            }
        }
        for &j in mine {
            let shared = neighbours(j)
                .iter()
                .filter(|&&k| marked_by.get(k) == Some(&i));
            triangles += shared.count();
        }
    }
    triangles
}

/// A box as the sweep reads it: its extent along the sweep axis and
/// across it, its index and its class.
#[derive(Debug)]
struct Swept {
    lo: f64,
    hi: f64,
    across: (f64, f64),
    id: usize,
    class: usize,
}

/// Every same-class pair `(lo, hi)`, `lo < hi`, with
/// `boxes[lo].iou(&boxes[hi]) >= thr`, in no set order: a sort-and-sweep
/// self-join per class. With a class's boxes ordered by lower edge along
/// the sparser axis, box `a`'s sweep partners are the later boxes whose
/// lower edge is at most `a`'s upper edge, which are exactly the later
/// boxes that overlap `a` on that axis, touching included; so each such
/// pair is visited once. A pair that clears `thr > 0` overlaps on both
/// axes, so skipping the pairs that do not overlap across the sweep axis
/// loses no match.
fn matching_edges(boxes: &[BBox2D], classes: &[usize], thr: f64) -> Vec<(usize, usize)> {
    let along_x = sparser_axis_is_x(boxes);
    let mut order: Vec<Swept> = boxes
        .iter()
        .zip(classes)
        .enumerate()
        .map(|(id, (b, &class))| {
            let (x, y) = ((b.x1(), b.x2()), (b.y1(), b.y2()));
            let ((lo, hi), across) = if along_x { (x, y) } else { (y, x) };
            Swept {
                lo,
                hi,
                across,
                id,
                class,
            }
        })
        .collect();
    order.sort_unstable_by(|a, b| a.class.cmp(&b.class).then(a.lo.total_cmp(&b.lo)));
    let mut edges = Vec::new();
    // Box `a`'s partners that overlap it across the axis too, at the
    // front; one slot per box covers any box's partners.
    let mut near = vec![0; boxes.len()];
    for class in order.chunk_by(|a, b| a.class == b.class) {
        let mut firsts = class.iter();
        while let Some(a) = firsts.next() {
            // Two filters, neither branching on its keep: first across
            // the axis, then IoU on the few partners that survive it.
            let partners = firsts.as_slice().iter().take_while(|b| b.lo <= a.hi);
            let across = partners.map(|b| {
                let overlaps = (b.across.0 <= a.across.1) & (a.across.0 <= b.across.1);
                (b.id, overlaps)
            });
            let kept = write_kept(&mut near, across);
            let matching = near.get(..kept).unwrap_or_default().iter().map(|&id| {
                // The lower id is the receiver, as in the reference scan.
                let (lo, hi) = (a.id.min(id), a.id.max(id));
                let pair = boxes.get(lo).zip(boxes.get(hi));
                ((lo, hi), pair.is_some_and(|(p, q)| p.iou(q) >= thr))
            });
            extend_kept(&mut edges, matching);
        }
    }
    edges
}

/// Whether `boxes` overlap less along x than along y: whether their
/// summed width is the smaller share of the bounds' width than their
/// summed height is of the bounds' height. Sweeping the sparser axis
/// visits the fewest pairs; either axis gives the same edges. A zero
/// span (every box on one line) counts as fully covered.
fn sparser_axis_is_x(boxes: &[BBox2D]) -> bool {
    let Some((first, rest)) = boxes.split_first() else {
        return true;
    };
    let bounds = rest.iter().fold(*first, |acc, b| acc.union_bounds(b));
    let (width, height) = boxes
        .iter()
        .fold((0.0, 0.0), |(w, h), b| (w + b.width(), h + b.height()));
    let cover = |sum: f64, span: f64| {
        if span > 0.0 {
            sum / span
        } else {
            f64::INFINITY
        }
    };
    cover(width, bounds.width()) <= cover(height, bounds.height())
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
        // `< thr` as the reference tests it: a NaN IoU counts as a match.
        let misses = |&t: &usize| targets.get(t).map_or(true, |b| q.iou(b) < iou_threshold);
        if cands.iter().all(misses) {
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
    fn sweep_takes_the_sparser_axis() {
        let column: Vec<BBox2D> = (0..200)
            .map(|i| {
                let y = f64::from(i) * 7.0;
                BBox2D::new(0.0, y, 40.0, y + 20.0).unwrap()
            })
            .collect();
        let row: Vec<BBox2D> = column
            .iter()
            .map(|b| BBox2D::new(b.y1(), b.x1(), b.y2(), b.x2()).unwrap())
            .collect();
        assert!(!sparser_axis_is_x(&column));
        assert!(sparser_axis_is_x(&row));
        // Every box on one vertical line: a zero x-span is fully covered.
        let line: Vec<BBox2D> = column
            .iter()
            .map(|b| BBox2D::new(5.0, b.y1(), 5.0, b.y2()).unwrap())
            .collect();
        assert!(!sparser_axis_is_x(&line));
        assert!(sparser_axis_is_x(&[]));
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
