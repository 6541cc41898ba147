//! A uniform spatial grid index over bounding boxes.
//!
//! Every geometric assertion in the paper — flicker (tracking), multibox
//! (duplicate clusters), and multi-sensor agreement — is a box-against-box
//! matcher, and a naive matcher scans all pairs: O(n²) IoU calls per
//! frame, which dominates runtime in crowded scenes (hundreds to
//! thousands of boxes per frame). A uniform grid cuts that to near-linear:
//! boxes are filed under every cell their AABB covers, and a query visits
//! only the cells its own AABB covers, so candidates are the boxes that
//! *could* overlap rather than all of them.
//!
//! [`GridIndex2D`] is built once over a borrowed slice of [`BBox2D`]s and
//! answers one query, [`GridIndex2D::candidates_overlapping`]; it is the
//! substrate of the two-set matchers, tracker association and fusion
//! agreement (see [`crate::matchers`]). Duplicate-cluster detection, a
//! self-join, sweeps its boxes along one axis instead.
//!
//! # Layout
//!
//! The cells' entries live in one flat array, row-major by cell and
//! ascending by box id within a cell, with `nx·ny + 1` offsets marking
//! where each cell's run starts (a CSR layout). A build counts the
//! entries per cell, prefix-sums the counts into the offsets and fills
//! the array: two allocations whatever the box count. Each entry also
//! records whether its cell is the box's first column and whether it is
//! the box's first row.
//!
//! # Correctness argument
//!
//! Cell coordinates are a monotone, clamped function of world
//! coordinates, so two intersecting AABBs always cover intersecting cell
//! ranges — including queries outside the grid bounds, which clamp onto
//! the border cells. The query reports a box only in the **first** cell
//! it shares with the query, `(max(bx1, qx1), max(by1, qy1))` in cell
//! coordinates. A visited cell holding the box lies inside both clamped
//! ranges, so its column is at least both first columns, and it equals
//! their maximum exactly when it equals one of them: the query's first
//! column, or (the entry's first-column mark) the box's. The same holds
//! for rows. So every box sharing a cell with the query is looked at
//! exactly once, and a [`BBox2D::intersects`] check keeps the ones whose
//! AABB intersects the query. The walk joins the mark test and the four
//! comparisons with non-short-circuit `&` and writes every visited id,
//! keeping it by advancing the output's length (`write_kept`): on
//! crowd frames a query keeps about 15 of its candidates in no pattern a
//! branch predictor can learn. [`GridIndex2D::candidates_overlapping`]
//! therefore returns **exactly** those boxes, each once, in the order
//! the walk meets them: row by row and, within a visited row, cell by
//! cell. That order is fixed by the input but is not ascending, and no
//! caller needs it to be: `iou_pairs` sorts each anchor's few matches by
//! query index and `count_unmatched` only counts. Matchers built on it
//! compute the same IoU values on the surviving pairs as the pairwise
//! reference scans in [`crate::reference`] — the equivalence the spatial
//! property suite and the registry-driven engine tests pin bit-for-bit.

use crate::BBox2D;

/// Hard cap on the number of grid cells, independent of input: beyond
/// this the cell size is scaled up so memory stays bounded even for
/// adversarial extents (one huge box next to thousands of tiny ones).
const MAX_CELLS: usize = 1 << 18;

/// Entry mark: the entry's cell is in its box's first column.
const FIRST_COL: u32 = 1;

/// Entry mark: the entry's cell is in its box's first row.
const FIRST_ROW: u32 = 2;

/// An entry is a box id shifted past the two marks.
const ID_SHIFT: u32 = 2;

/// A uniform grid index over a borrowed slice of [`BBox2D`]s.
///
/// Built in one shot by [`GridIndex2D::build`], which derives the cell
/// size from the median box extent. The cells' box ids are stored in one
/// flat array, cell after cell (see the [module docs](self)). Queries
/// return indices into the slice, duplicate-free, in the order the walk
/// meets them: deterministic for one input, but not ascending.
///
/// # Example
///
/// ```
/// use omg_geom::{grid::GridIndex2D, BBox2D};
///
/// let boxes = vec![
///     BBox2D::new(0.0, 0.0, 10.0, 10.0)?,
///     BBox2D::new(5.0, 5.0, 15.0, 15.0)?,
///     BBox2D::new(100.0, 100.0, 110.0, 110.0)?,
/// ];
/// let grid = GridIndex2D::build(&boxes);
/// let mut hits = Vec::new();
/// grid.candidates_overlapping(&boxes[0], &mut hits);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1]); // the far box never shows up
/// # Ok::<(), omg_geom::GeomError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex2D<'a> {
    x0: f64,
    y0: f64,
    cell: f64,
    nx: usize,
    ny: usize,
    /// Row-major cell `c`'s entries are `entries[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Every cell's run of entries, `id << ID_SHIFT` plus the marks,
    /// ascending by id within a run.
    entries: Vec<u32>,
    boxes: &'a [BBox2D],
}

impl<'a> GridIndex2D<'a> {
    /// Builds a grid over `boxes`, deriving bounds from their union and
    /// the cell edge from the **median box extent** (the larger of width
    /// and height, clamped so the cell count stays proportional to the
    /// box count). Median sizing keeps the common case — many
    /// similarly-sized objects — at a handful of candidates per query
    /// without letting one outlier box dictate the resolution.
    ///
    /// # Panics
    ///
    /// Panics if `boxes` holds more than 2³⁰ boxes, the most an entry's
    /// id field can number.
    pub fn build(boxes: &'a [BBox2D]) -> Self {
        let Some((first, rest)) = boxes.split_first() else {
            return Self {
                x0: 0.0,
                y0: 0.0,
                cell: 1.0,
                nx: 1,
                ny: 1,
                starts: vec![0, 0],
                entries: Vec::new(),
                boxes,
            };
        };
        assert!(
            boxes.len() <= (u32::MAX >> ID_SHIFT) as usize + 1,
            "a grid indexes at most 2^30 boxes, got {}",
            boxes.len()
        );
        let bounds = rest.iter().fold(*first, |acc, b| acc.union_bounds(b));
        let mut extents: Vec<f64> = boxes.iter().map(|b| b.width().max(b.height())).collect();
        // The extents are non-empty (the empty case returned above), so
        // len/2 < len is a valid rank.
        let mid = extents.len() / 2;
        let (_, &mut median, _) = extents.select_nth_unstable_by(mid, f64::total_cmp);
        // Degenerate inputs (all zero-area boxes) fall back to carving
        // the bounds into ~sqrt(n) cells per axis.
        let span = bounds.width().max(bounds.height()).max(1e-9);
        let fallback = span / (boxes.len() as f64).sqrt().max(1.0);
        let mut cell = if median > 0.0 { median } else { fallback };
        // Keep total cells O(n): a tiny median over a huge extent would
        // otherwise allocate a grid far larger than the input.
        let target_cells = (4 * boxes.len() + 64) as f64;
        let need = (bounds.width() / cell).max(1.0) * (bounds.height() / cell).max(1.0);
        if need > target_cells {
            cell *= (need / target_cells).sqrt();
        }
        // A valid box may still be wider or taller than f64 can hold
        // (x2 - x1 overflows), which makes the median or the bounds
        // infinite and `cell` with them. That is safe: `axis_cells` turns
        // an inf/NaN quotient into one cell, so an infinite cell is a 1×1
        // grid whose single cell holds every box, and the `intersects`
        // trim keeps the answer exact.
        let (cell, nx, ny) = fit_cells(&bounds, cell);
        let mut grid = Self {
            x0: bounds.x1(),
            y0: bounds.y1(),
            cell,
            nx,
            ny,
            starts: vec![0; nx * ny + 1],
            entries: Vec::new(),
            boxes,
        };
        // Count each cell's entries, then prefix-sum the counts in place:
        // `starts[c]` becomes the end of cell `c`'s run.
        for b in boxes {
            let (cx1, cy1, cx2, cy2) = grid.cell_range(b);
            for cy in cy1..=cy2 {
                for end in grid.row_offsets(cy, cx1, cx2) {
                    *end += 1;
                }
            }
        }
        let mut total = 0;
        for end in &mut grid.starts {
            total += *end;
            *end = total;
        }
        // Fill each run back to front, boxes in descending id order, so
        // every run reads ascending; each entry moves its cell's offset
        // down by one, leaving `starts[c]` at the start of run `c`.
        let mut entries = vec![0; total];
        for (id, b) in boxes.iter().enumerate().rev() {
            let (cx1, cy1, cx2, cy2) = grid.cell_range(b);
            let id = (id as u32) << ID_SHIFT;
            for cy in cy1..=cy2 {
                let row = if cy == cy1 { id | FIRST_ROW } else { id };
                let mut mark = FIRST_COL;
                for start in grid.row_offsets(cy, cx1, cx2) {
                    *start -= 1;
                    if let Some(slot) = entries.get_mut(*start) {
                        *slot = row | mark;
                    }
                    mark = 0;
                }
            }
        }
        grid.entries = entries;
        grid
    }

    /// The offsets of cells `cx1..=cx2` in row `cy`: one contiguous run,
    /// since cells are row-major. Empty if the range leaves the grid,
    /// which `cell_range` never lets happen.
    fn row_offsets(&mut self, cy: usize, cx1: usize, cx2: usize) -> &mut [usize] {
        let row = cy * self.nx;
        self.starts
            .get_mut(row + cx1..=row + cx2)
            .unwrap_or_default()
    }

    /// Clamped cell coordinate of a world point: the floor of its offset
    /// in cells, clamped to the grid. The saturating `as usize` cast is
    /// that floor for offsets at or above zero, and maps negative and NaN
    /// offsets to cell 0 and `+inf` to the last cell.
    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        (
            (((x - self.x0) / self.cell) as usize).min(self.nx - 1),
            (((y - self.y0) / self.cell) as usize).min(self.ny - 1),
        )
    }

    /// Clamped cell range `[cx1..=cx2] × [cy1..=cy2]` covered by a box.
    fn cell_range(&self, b: &BBox2D) -> (usize, usize, usize, usize) {
        let (cx1, cy1) = self.cell_of(b.x1(), b.y1());
        let (cx2, cy2) = self.cell_of(b.x2(), b.y2());
        (cx1, cy1, cx2, cy2)
    }

    /// Collects into `out` the ids of **exactly** the indexed boxes whose
    /// AABB intersects `query` (touching edges count), each once, in the
    /// order the walk meets them (not ascending). `out` is cleared first;
    /// reuse it across queries to avoid reallocation.
    pub fn candidates_overlapping(&self, query: &BBox2D, out: &mut Vec<usize>) {
        out.clear();
        let (cx1, cy1, cx2, cy2) = self.cell_range(query);
        for cy in cy1..=cy2 {
            // The row's visited cells are one run of entries; its first
            // cell is the query's first column, so only the rest need the
            // first-column mark, and rows past the query's first need the
            // first-row mark.
            let row = cy * self.nx;
            let need_row = if cy == cy1 { 0 } else { FIRST_ROW };
            let first = self.cell_run(row + cx1, row + cx1 + 1);
            self.push_hits(first, need_row, query, out);
            let rest = self.cell_run(row + cx1 + 1, row + cx2 + 1);
            self.push_hits(rest, need_row | FIRST_COL, query, out);
        }
    }

    /// The entries of row-major cells `from..to`: one contiguous run.
    /// Empty if the cells leave the grid, which `cell_range` never lets
    /// happen.
    fn cell_run(&self, from: usize, to: usize) -> &[u32] {
        let lo = self.starts.get(from).copied().unwrap_or_default();
        let hi = self.starts.get(to).copied().unwrap_or_default();
        self.entries.get(lo..hi).unwrap_or_default()
    }

    /// Appends the ids of the `entries` that carry every mark in `need`
    /// and whose box intersects `query`, without a branch on either test
    /// (see [`extend_kept`]).
    fn push_hits(&self, entries: &[u32], need: u32, query: &BBox2D, out: &mut Vec<usize>) {
        let hits = entries.iter().map(|&entry| {
            let id = (entry >> ID_SHIFT) as usize;
            let meets = self.boxes.get(id).is_some_and(|b| b.intersects(query));
            (id, (entry & need == need) & meets)
        });
        extend_kept(out, hits);
    }
}

/// Appends to `out`, in order, the items of `items` whose flag is set:
/// `out` grows by `items`' length, [`write_kept`] fills the new slots,
/// and the slots past the kept ones are cut off again.
pub(crate) fn extend_kept<T, I>(out: &mut Vec<T>, items: I)
where
    T: Copy + Default,
    I: ExactSizeIterator<Item = (T, bool)>,
{
    let from = out.len();
    out.resize(from + items.len(), T::default());
    let kept = write_kept(out.get_mut(from..).unwrap_or_default(), items);
    out.truncate(from + kept);
}

/// Writes the items of `items` whose flag is set to the front of `out`,
/// in order, and returns how many there are, without branching on the
/// flag: each item is written at the kept count, which then advances by
/// `usize::from(flag)`. A crowded filter keeps few of its candidates in
/// no predictable pattern, so a branch per candidate mispredicts often
/// and the unconditional write is cheaper. `out` needs a slot for every
/// item; the slots past the returned count hold rejected items.
pub(crate) fn write_kept<T>(out: &mut [T], items: impl Iterator<Item = (T, bool)>) -> usize {
    let mut kept = 0;
    for (item, keep) in items {
        if let Some(slot) = out.get_mut(kept) {
            *slot = item;
        }
        kept += usize::from(keep);
    }
    kept
}

/// Number of cells along an axis for `span` world units.
fn axis_cells(span: f64, cell: f64) -> usize {
    ((span / cell).ceil() as usize).max(1)
}

/// Scales `cell` up until the grid over `bounds` fits [`MAX_CELLS`];
/// returns the cell edge with the grid's `(nx, ny)`.
fn fit_cells(bounds: &BBox2D, mut cell: f64) -> (f64, usize, usize) {
    let mut nx = axis_cells(bounds.width(), cell);
    let mut ny = axis_cells(bounds.height(), cell);
    // A single pass is not enough: rescaling by sqrt(overshoot) assumes
    // both axes shrink with the cell, but a thin-strip bounds clamps one
    // axis at a single cell, leaving the other to absorb the whole
    // reduction — so recompute and re-scale until the product fits.
    // The product (and its f64 image for the scale) stays saturated
    // so extreme finite extents cannot overflow the multiply.
    // Terminates: the cell grows by at least 0.1% per iteration, and
    // once it exceeds the larger bounds span the grid is 1×1.
    while nx.saturating_mul(ny) > MAX_CELLS {
        let over = nx.saturating_mul(ny) as f64 / MAX_CELLS as f64;
        // With an axis already collapsed to one cell the shrink is
        // linear in the other axis, not split across both.
        let scale = if nx == 1 || ny == 1 {
            over
        } else {
            over.sqrt()
        };
        cell *= scale.max(1.0) * 1.001;
        nx = axis_cells(bounds.width(), cell);
        ny = axis_cells(bounds.height(), cell);
    }
    (cell, nx, ny)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x: f64, y: f64, s: f64) -> BBox2D {
        BBox2D::new(x, y, x + s, y + s).unwrap()
    }

    /// Brute-force reference for candidate queries, ascending.
    fn brute_overlapping(boxes: &[BBox2D], q: &BBox2D) -> Vec<usize> {
        (0..boxes.len())
            .filter(|&i| boxes[i].intersects(q))
            .collect()
    }

    /// The grid's candidates for `q`, sorted: a duplicate would show as
    /// an extra element.
    fn sorted_candidates(grid: &GridIndex2D<'_>, q: &BBox2D) -> Vec<usize> {
        let mut out = Vec::new();
        grid.candidates_overlapping(q, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn cell_of_is_the_clamped_floor() {
        let boxes: Vec<BBox2D> = (0..10)
            .map(|i| bb(f64::from(i) * 10.0, f64::from(i) * 5.0, 10.0))
            .collect();
        let grid = GridIndex2D::build(&boxes);
        let clamped_floor = |v: f64, n: usize| {
            let v = v.floor();
            let v = if v.is_nan() { 0.0 } else { v };
            (v.max(0.0) as usize).min(n - 1)
        };
        let offsets = [
            -1e300,
            -10.0,
            -0.5,
            -0.0,
            0.0,
            9.999,
            10.0,
            10.001,
            95.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &dx in &offsets {
            for &dy in &offsets {
                let (x, y) = (grid.x0 + dx, grid.y0 + dy);
                let want = (
                    clamped_floor((x - grid.x0) / grid.cell, grid.nx),
                    clamped_floor((y - grid.y0) / grid.cell, grid.ny),
                );
                assert_eq!(grid.cell_of(x, y), want, "offset ({dx}, {dy})");
            }
        }
    }

    #[test]
    fn empty_grid_answers_empty() {
        let grid = GridIndex2D::build(&[]);
        let mut out = vec![7usize];
        grid.candidates_overlapping(&bb(0.0, 0.0, 10.0), &mut out);
        assert!(out.is_empty(), "query must clear the scratch vec");
    }

    #[test]
    fn stale_ids_in_out_never_survive_a_query() {
        // The walk writes every entry it visits and keeps few of them,
        // so the buffer must end at the kept ids whatever it held.
        let boxes: Vec<BBox2D> = (0..40)
            .map(|i| bb(f64::from(i % 8) * 4.0, f64::from(i / 8) * 4.0, 6.0))
            .collect();
        let grid = GridIndex2D::build(&boxes);
        let q = bb(9.0, 9.0, 2.0);
        let want = brute_overlapping(&boxes, &q);
        assert!(!want.is_empty() && want.len() < boxes.len());
        let mut out = vec![usize::MAX; 3 * boxes.len()];
        grid.candidates_overlapping(&q, &mut out);
        out.sort_unstable();
        assert_eq!(out, want);
    }

    #[test]
    fn candidates_are_exactly_the_intersecting_boxes() {
        let boxes = vec![
            bb(0.0, 0.0, 10.0),
            bb(5.0, 5.0, 10.0),
            bb(9.9, 0.0, 5.0),
            bb(50.0, 50.0, 10.0),
            bb(-30.0, -30.0, 5.0),
        ];
        let grid = GridIndex2D::build(&boxes);
        for q in &boxes {
            assert_eq!(sorted_candidates(&grid, q), brute_overlapping(&boxes, q));
        }
        // A query box nobody touches.
        assert!(sorted_candidates(&grid, &bb(200.0, 200.0, 1.0)).is_empty());
    }

    #[test]
    fn out_of_bounds_boxes_clamp_but_stay_findable() {
        let inside = bb(5.0, 5.0, 10.0);
        let corner = bb(90.0, 90.0, 10.0);
        let boxes = [inside, corner];
        let grid = GridIndex2D::build(&boxes);
        let mut out = Vec::new();
        // Queries reaching past the bounds clamp onto the border cells.
        grid.candidates_overlapping(&bb(95.0, 95.0, 500.0), &mut out);
        assert_eq!(out, vec![1]);
        grid.candidates_overlapping(&bb(-500.0, -500.0, 510.0), &mut out);
        assert_eq!(out, vec![0]);
        // Entirely outside: clamped cells, but the trim rejects.
        grid.candidates_overlapping(&bb(500.0, 500.0, 10.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn box_straddling_many_cells_reported_once() {
        let big = BBox2D::new(0.0, 0.0, 100.0, 100.0).unwrap();
        let mut boxes = vec![big];
        boxes.extend((0..20).map(|i| bb(f64::from(i) * 5.0, 0.0, 5.0)));
        let grid = GridIndex2D::build(&boxes);
        assert!(grid.nx * grid.ny > 1, "big must span several cells");
        assert_eq!(
            sorted_candidates(&grid, &big),
            (0..boxes.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_area_boxes_index_and_query() {
        let boxes = vec![bb(5.0, 5.0, 0.0), bb(5.0, 5.0, 0.0), bb(80.0, 80.0, 0.0)];
        let grid = GridIndex2D::build(&boxes);
        assert_eq!(sorted_candidates(&grid, &bb(0.0, 0.0, 10.0)), vec![0, 1]);
    }

    #[test]
    fn build_derives_a_sane_cell_size() {
        let boxes: Vec<BBox2D> = (0..100)
            .map(|i| bb(f64::from(i) * 3.0, 0.0, 10.0))
            .collect();
        let grid = GridIndex2D::build(&boxes);
        assert!(grid.cell > 0.0);
        let (nx, ny) = (grid.nx, grid.ny);
        assert!(nx * ny <= 4 * boxes.len() + 64 + nx + ny, "cells stay O(n)");
    }

    #[test]
    fn adversarial_extent_is_memory_bounded() {
        // One huge box, many tiny ones: the naive grid would want
        // billions of cells.
        let mut boxes = vec![BBox2D::new(0.0, 0.0, 1e7, 1e7).unwrap()];
        for i in 0..50 {
            boxes.push(bb(f64::from(i) * 0.001, 0.0, 0.01));
        }
        let grid = GridIndex2D::build(&boxes);
        assert!(grid.nx * grid.ny <= super::MAX_CELLS);
        let mut out = Vec::new();
        grid.candidates_overlapping(&boxes[0], &mut out);
        assert_eq!(out.len(), 51, "the huge box overlaps everything");
    }

    #[test]
    fn anisotropic_extent_is_memory_bounded() {
        // A thin strip: ny clamps to one cell, so the whole reduction
        // must land on the x axis. The single-pass sqrt clamp left this
        // at ~sqrt(nx·MAX_CELLS) cells — a GB-scale allocation.
        let boxes: Vec<BBox2D> = (0..128)
            .map(|i| {
                let x = f64::from(i) * 1e16;
                BBox2D::new(x, 0.0, x + 0.5, 0.5).unwrap()
            })
            .collect();
        let grid = GridIndex2D::build(&boxes);
        let (nx, ny) = (grid.nx, grid.ny);
        assert!(
            nx.saturating_mul(ny) <= super::MAX_CELLS,
            "thin strip must respect the cap, got {nx}x{ny}"
        );
        // The boxes are pairwise disjoint: each query finds itself only.
        let mut out = Vec::new();
        for (i, q) in boxes.iter().enumerate() {
            grid.candidates_overlapping(q, &mut out);
            assert_eq!(out, vec![i]);
        }
    }

    #[test]
    fn extreme_bounds_do_not_overflow_cell_count() {
        // Both axes saturate their cell counts at usize::MAX before the
        // clamp; re-multiplying them unsaturated overflowed (debug
        // panic, release wrap). The clamp must stay saturated and still
        // land under the cap.
        let bounds = BBox2D::new(0.0, 0.0, 1e300, 1e300).unwrap();
        let (_, nx, ny) = fit_cells(&bounds, 1e-300);
        assert!(nx.saturating_mul(ny) <= super::MAX_CELLS);
    }
}
