//! Property tests for the spatial grid index and the indexed matchers.
//!
//! A crowded-scene strategy (dense duplicate clusters + uniform clutter)
//! drives the three public matchers — association pairs, duplicate
//! triples, agreement counting — and asserts bit-for-bit equality with
//! the O(n²) reference scans; a fixed ladder covers sizes 0/1/2/100/1000
//! deterministically; adversarial shapes (all-identical boxes, zero-area
//! boxes, giant boxes straddling many cells) get their own generators;
//! a lattice generator puts box and query edges exactly on the grid's
//! cell lines; sweep layouts (a shared x- or y-range, tall thin stacks,
//! tied sweep keys, touching boxes) test the `overlap_triples` sweep
//! where one axis tells boxes apart badly; and the grid's one query,
//! `candidates_overlapping`, is checked against brute force.

use omg_geom::grid::GridIndex2D;
use omg_geom::{matchers, reference, BBox2D};
use proptest::prelude::*;

/// A generated crowded scene: boxes plus the per-box classes the
/// matchers consume.
#[derive(Debug, Clone)]
struct Scene {
    boxes: Vec<BBox2D>,
    classes: Vec<usize>,
}

/// Dense clusters + uniform clutter, up to `max_boxes` boxes: a few
/// cluster anchors, and each box either piles onto an anchor (the
/// duplicate pattern) or lands anywhere in the scene.
fn crowded_scene(max_boxes: usize) -> impl Strategy<Value = Scene> {
    (
        proptest::collection::vec((0.0f64..900.0, 0.0f64..500.0), 1..6),
        proptest::collection::vec(
            (
                any::<u64>(),
                any::<bool>(),
                -9.0f64..9.0,
                -9.0f64..9.0,
                12.0f64..70.0,
                10.0f64..55.0,
                0usize..3,
            ),
            0..max_boxes + 1,
        ),
    )
        .prop_map(|(anchors, specs)| {
            let mut scene = Scene {
                boxes: Vec::new(),
                classes: Vec::new(),
            };
            for (which, clustered, dx, dy, w, h, class) in specs {
                let (cx, cy) = if clustered {
                    let (ax, ay) = anchors[which as usize % anchors.len()];
                    (ax + dx, ay + dy)
                } else {
                    // Reuse the offsets as uniform clutter coordinates.
                    ((dx + 9.0) * 50.0, (dy + 9.0) * 28.0)
                };
                scene
                    .boxes
                    .push(BBox2D::new(cx, cy, cx + w, cy + h).unwrap());
                scene.classes.push(class);
            }
            scene
        })
}

/// An `iou_pairs` form: the indexed matcher or its reference.
type PairsForm = fn(&[BBox2D], &[BBox2D], f64, &mut Vec<(f64, usize, usize)>);

/// The pairs an `iou_pairs` form writes into a buffer that starts out
/// holding a stale pair.
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

/// Asserts every public matcher equals its reference twin on `scene`
/// (with `others` as the second side of the two-set matchers).
fn assert_matchers_equal_reference(scene: &Scene, others: &[BBox2D], thr: f64) {
    let Scene { boxes, classes } = scene;
    assert_eq!(
        pairs_of(matchers::iou_pairs, boxes, others, thr),
        pairs_of(reference::iou_pairs, boxes, others, thr),
        "iou_pairs diverged (n={}, m={}, thr={thr})",
        boxes.len(),
        others.len()
    );
    assert_eq!(
        matchers::overlap_triples(boxes, classes, thr),
        reference::overlap_triples(boxes, classes, thr),
        "overlap_triples diverged (n={}, thr={thr})",
        boxes.len()
    );
    assert_eq!(
        matchers::count_unmatched(boxes, others, thr),
        reference::count_unmatched(boxes, others, thr),
        "count_unmatched diverged (n={}, m={}, thr={thr})",
        boxes.len(),
        others.len()
    );
}

/// Deterministic crowded scene for the fixed size ladder (tiny LCG so
/// the 1000-box case needs no proptest machinery): 40% of boxes in
/// 5-box clusters, the rest clutter.
fn lcg_scene(seed: u64, n: usize) -> Scene {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut scene = Scene {
        boxes: Vec::new(),
        classes: Vec::new(),
    };
    while scene.boxes.len() < n {
        let in_cluster = scene.boxes.len() < (n * 2) / 5;
        let members = if in_cluster {
            5.min(n - scene.boxes.len())
        } else {
            1
        };
        let ax = next() * 1200.0;
        let ay = next() * 700.0;
        let class = (next() * 3.0) as usize;
        for _ in 0..members {
            let x = ax + next() * 12.0;
            let y = ay + next() * 12.0;
            let w = 20.0 + next() * 60.0;
            let h = 15.0 + next() * 50.0;
            scene.boxes.push(BBox2D::new(x, y, x + w, y + h).unwrap());
            scene.classes.push(class);
        }
    }
    scene
}

/// The cell edges lattice scenes use. Powers of two keep every lattice
/// coordinate, and every `(x - x0) / cell` quotient the grid takes,
/// exact.
const LATTICE_CELLS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 16.0];

/// Thresholds for lattice scenes: their IoUs are exact ratios such as
/// 1/7, 1/3, 1/2 and 1, so a threshold can equal an IoU.
const LATTICE_THRESHOLDS: [f64; 6] = [1.0 / 7.0, 0.25, 1.0 / 3.0, 0.5, 0.9, 1.0];

/// Two box sets on one lattice, with the lattice's cell edge, origin and
/// size, for queries drawn on the same lattice.
#[derive(Debug, Clone)]
struct Lattice {
    cell: f64,
    origin: (f64, f64),
    /// Lattice points per axis past the origin, in half-cell steps.
    steps: u32,
    scene: Scene,
    others: Vec<BBox2D>,
}

impl Lattice {
    /// The box with its corner at lattice point `(i, j)`, `w` × `h`
    /// half-cell steps.
    fn boxed(&self, i: i64, j: i64, w: u32, h: u32) -> BBox2D {
        let half = self.cell / 2.0;
        let x = self.origin.0 + i as f64 * half;
        let y = self.origin.1 + j as f64 * half;
        BBox2D::new(x, y, x + f64::from(w) * half, y + f64::from(h) * half).unwrap()
    }

    /// A query drawn from raw numbers: its corner from 4 steps before the
    /// origin, its far edge up to 4 steps past the lattice's far edge, and
    /// zero widths allowed.
    fn query(&self, (i, j, w, h): (u32, u32, u32, u32)) -> BBox2D {
        let reach = self.steps + 9;
        let (i, j) = (i % reach, j % reach);
        self.boxed(
            i64::from(i) - 4,
            i64::from(j) - 4,
            w % (reach - i + 2),
            h % (reach - j + 2),
        )
    }
}

/// Box specs for one lattice set: a lattice point, a shape, a class.
type LatticeSpecs = Vec<(u32, u32, usize, usize)>;

/// Lattice scenes of 128–200 boxes per set. Every box is one cell by
/// one cell, or one cell by half a cell, so every box's extent is the
/// cell edge, and so is the median the grid sizes its cells by; the
/// lattice spans at most 13 cells per axis, well inside the `4n + 64`
/// cell budget, so the grid keeps that edge. Boxes sit on a half-cell
/// lattice from one origin, and two boxes pin both sets' bounds to the
/// lattice's corners, so about half of all box edges lie exactly on cell
/// lines, the others halfway between. Boxes one cell apart touch, boxes
/// at one point coincide, and half-step neighbours overlap partially.
fn lattice() -> impl Strategy<Value = Lattice> {
    let specs =
        || proptest::collection::vec((any::<u32>(), any::<u32>(), 0usize..3, 0usize..3), 126..199);
    (
        0..LATTICE_CELLS.len(),
        -40i32..40,
        -40i32..40,
        4u32..25,
        specs(),
        specs(),
    )
        .prop_map(|(cell, ox, oy, steps, mine, theirs)| {
            let mut lattice = Lattice {
                cell: LATTICE_CELLS[cell],
                origin: (f64::from(ox), f64::from(oy)),
                steps,
                scene: Scene {
                    boxes: Vec::new(),
                    classes: Vec::new(),
                },
                others: Vec::new(),
            };
            let place = |lattice: &Lattice, specs: LatticeSpecs| {
                let pins = [(0, 0, 0, 0), (steps, steps, 0, 1)];
                pins.into_iter()
                    .chain(specs)
                    .map(|(i, j, shape, class)| {
                        let (w, h) = [(2, 2), (2, 1), (1, 2)][shape];
                        let at = |k: u32| i64::from(k % (steps + 1));
                        (lattice.boxed(at(i), at(j), w, h), class)
                    })
                    .collect::<Vec<_>>()
            };
            let (boxes, classes) = place(&lattice, mine).into_iter().unzip();
            lattice.scene = Scene { boxes, classes };
            lattice.others = place(&lattice, theirs)
                .into_iter()
                .map(|(b, _)| b)
                .collect();
            lattice
        })
}

/// The layouts a one-axis sweep handles worst, or where its ordering
/// and boundary tests decide the answer.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Every box spans the same x-range: an x sweep would visit every
    /// pair, so the sweep must pick y.
    Column,
    /// Every box spans the same y-range: the transpose of `Column`.
    Row,
    /// Columns of tall, thin boxes that all overlap in y.
    ThinStacks,
    /// Lower edges drawn from a handful of values on both axes, so the
    /// sweep key ties often.
    TiedKeys,
    /// Equal boxes on a lattice one box wide, so neighbours touch at the
    /// sweep boundary and the boxes at one point coincide.
    Touching,
}

const LAYOUTS: [Layout; 5] = [
    Layout::Column,
    Layout::Row,
    Layout::ThinStacks,
    Layout::TiedKeys,
    Layout::Touching,
];

/// `n` boxes in `layout`, deterministic per seed, with classes
/// interleaved (`i % 3`) so each box's nearest neighbours on the sweep
/// axis are mostly of other classes. Densities keep a few boxes over
/// each point, so the triples are many but the reference stays fast at
/// 1,000 boxes.
fn layout_scene(layout: Layout, n: usize, seed: u64) -> Scene {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let reach = n as f64 * 4.0;
    let stacks = (n / 10).max(1) as f64;
    let boxes = (0..n)
        .map(|_| {
            let (x1, y1, x2, y2) = match layout {
                Layout::Column | Layout::Row => {
                    let at = next() * reach;
                    let (lo, hi) = (at, at + 10.0 + next() * 30.0);
                    if matches!(layout, Layout::Column) {
                        (100.0, lo, 140.0, hi)
                    } else {
                        (lo, 100.0, hi, 140.0)
                    }
                }
                Layout::ThinStacks => {
                    let x = (next() * stacks).floor() * 30.0 + next() * 2.0;
                    let y = next() * 20.0;
                    (x, y, x + 2.0 + next() * 6.0, y + 600.0 + next() * 40.0)
                }
                Layout::TiedKeys => {
                    let x = (next() * 8.0).floor() * 10.0 * stacks;
                    let y = (next() * 8.0).floor() * 10.0;
                    (x, y, x + 10.0 + next() * 20.0, y + 10.0 + next() * 20.0)
                }
                Layout::Touching => {
                    let side = (n as f64 / 8.0).sqrt().ceil();
                    let x = (next() * side).floor() * 10.0;
                    let y = (next() * side).floor() * 10.0;
                    (x, y, x + 10.0, y + 10.0)
                }
            };
            BBox2D::new(x1, y1, x2, y2).unwrap()
        })
        .collect();
    Scene {
        boxes,
        classes: (0..n).map(|i| i % 3).collect(),
    }
}

/// `overlap_triples` equals the reference on every sweep layout at
/// 1,000 boxes, both at a threshold most overlapping pairs clear and at
/// one few do.
#[test]
fn sweep_layouts_agree_with_reference_at_1000_boxes() {
    for layout in LAYOUTS {
        let Scene { boxes, classes } = layout_scene(layout, 1000, 3);
        for thr in [0.1, 0.5] {
            let want = reference::overlap_triples(&boxes, &classes, thr);
            assert_eq!(
                matchers::overlap_triples(&boxes, &classes, thr),
                want,
                "{layout:?} at thr={thr}"
            );
            if thr == 0.1 {
                assert!(want > 0, "{layout:?} must hold triples");
            }
        }
    }
}

/// The fixed size ladder from the issue: 0, 1, 2 (edge cases), 100
/// (below the index cutoff — dispatch must fall back), 1000 (well above
/// it — the grid path runs for every matcher).
#[test]
fn size_ladder_agrees_with_reference() {
    for n in [0usize, 1, 2, 100, 1000] {
        let scene = lcg_scene(n as u64 + 1, n);
        let others = lcg_scene(n as u64 + 101, n).boxes;
        for thr in [0.3, 0.5] {
            assert_matchers_equal_reference(&scene, &others, thr);
        }
    }
}

proptest! {
    /// The headline property: on arbitrary crowded scenes and
    /// thresholds, indexed == reference for all three matchers. Sizes
    /// reach past `INDEX_MIN` so the grid path itself is exercised.
    #[test]
    fn crowded_scenes_agree_with_reference(
        scene in crowded_scene(160),
        others in crowded_scene(150),
        thr in 0.05f64..0.9,
    ) {
        assert_matchers_equal_reference(&scene, &others.boxes, thr);
    }

    /// Adversarial: every box identical, all in the same few cells.
    /// (Triples are covered by a deterministic 150-box unit test in
    /// `matchers` — C(n,3) blows up the reference under proptest.)
    #[test]
    fn all_identical_boxes_agree_at_any_count(
        n in 0usize..150,
        x in -50.0f64..400.0,
        y in -50.0f64..400.0,
        s in 0.5f64..80.0,
        thr in 0.05f64..0.9,
    ) {
        let boxes = vec![BBox2D::new(x, y, x + s, y + s).unwrap(); n];
        prop_assert_eq!(
            pairs_of(matchers::iou_pairs, &boxes, &boxes, thr),
            pairs_of(reference::iou_pairs, &boxes, &boxes, thr)
        );
        prop_assert_eq!(
            matchers::count_unmatched(&boxes, &boxes, thr),
            reference::count_unmatched(&boxes, &boxes, thr)
        );
    }

    /// Adversarial: zero-area (point) boxes mixed into a real scene.
    /// Degenerate boxes have IoU 0 with everything, so they never match
    /// — on both paths.
    #[test]
    fn zero_area_boxes_mixed_in_agree(
        mut scene in crowded_scene(140),
        points in proptest::collection::vec((0.0f64..900.0, 0.0f64..500.0), 1..30),
        thr in 0.05f64..0.9,
    ) {
        for (px, py) in points {
            scene.boxes.push(BBox2D::new(px, py, px, py).unwrap());
            scene.classes.push(0);
        }
        let others = scene.boxes.clone();
        assert_matchers_equal_reference(&scene, &others, thr);
    }

    /// Adversarial: giant boxes straddling most of the grid's cells on
    /// top of a crowded scene.
    #[test]
    fn giant_boxes_straddling_many_cells_agree(
        mut scene in crowded_scene(140),
        giants in proptest::collection::vec(
            (-100.0f64..100.0, -100.0f64..100.0, 500.0f64..1200.0, 350.0f64..800.0),
            1..5,
        ),
        thr in 0.05f64..0.9,
    ) {
        for (x, y, w, h) in giants {
            scene.boxes.push(BBox2D::new(x, y, x + w, y + h).unwrap());
            scene.classes.push(1);
        }
        let others = scene.boxes.clone();
        assert_matchers_equal_reference(&scene, &others, thr);
    }

    /// The grid's core contract: `candidates_overlapping` returns
    /// exactly the AABB-intersecting boxes, each once, in no set order
    /// (sorted, the list must equal the ascending brute-force set, so a
    /// duplicate fails too). The zero-area query at `(qx, qy)` always
    /// maps to one cell, so each case also checks the single-cell walk.
    #[test]
    fn grid_candidates_are_exactly_the_intersecting_set(
        scene in crowded_scene(120),
        qx in -150.0f64..1000.0,
        qy in -150.0f64..600.0,
        qw in 0.0f64..500.0,
        qh in 0.0f64..400.0,
    ) {
        prop_assume!(!scene.boxes.is_empty());
        let grid = GridIndex2D::build(&scene.boxes);
        let wide = BBox2D::new(qx, qy, qx + qw, qy + qh).unwrap();
        let point = BBox2D::new(qx, qy, qx, qy).unwrap();
        let mut got = Vec::new();
        for query in [wide, point] {
            grid.candidates_overlapping(&query, &mut got);
            got.sort_unstable();
            let want: Vec<usize> = scene
                .boxes
                .iter()
                .enumerate()
                .filter(|(_, b)| b.intersects(&query))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(&got, &want);
        }
    }

    /// The grid's contract on a lattice, where box and query edges lie
    /// on cell lines and boxes touch: each box a query intersects is
    /// reported once however many visited cells hold it (compared as
    /// sorted sets, as above), including queries whose first cells are
    /// clamped onto the border.
    #[test]
    fn lattice_candidates_are_exactly_the_intersecting_set(
        lattice in lattice(),
        queries in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            16,
        ),
    ) {
        let boxes = &lattice.scene.boxes;
        let grid = GridIndex2D::build(boxes);
        let mut got = Vec::new();
        let drawn = queries.into_iter().map(|q| lattice.query(q));
        for query in drawn.chain(boxes.iter().copied()) {
            grid.candidates_overlapping(&query, &mut got);
            got.sort_unstable();
            let want: Vec<usize> = boxes
                .iter()
                .enumerate()
                .filter(|(_, b)| b.intersects(&query))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(&got, &want, "query {:?}", query);
        }
    }

    /// Every sweep layout, at 128 (`INDEX_MIN`) to 259 boxes and at any
    /// threshold, counts the reference's triples.
    #[test]
    fn sweep_layouts_agree_with_reference(
        layout in 0..LAYOUTS.len(),
        n in 128usize..260,
        seed in any::<u64>(),
        thr in 0.05f64..0.95,
    ) {
        let Scene { boxes, classes } = layout_scene(LAYOUTS[layout], n, seed);
        prop_assert_eq!(
            matchers::overlap_triples(&boxes, &classes, thr),
            reference::overlap_triples(&boxes, &classes, thr)
        );
    }

    /// The three matchers equal their references on lattice scenes,
    /// whose touching boxes, exact IoU ties and cell-line edges the
    /// crowded scenes almost never produce.
    #[test]
    fn lattice_scenes_agree_with_reference(
        lattice in lattice(),
        thr in 0..LATTICE_THRESHOLDS.len(),
    ) {
        let thr = LATTICE_THRESHOLDS[thr];
        assert_matchers_equal_reference(&lattice.scene, &lattice.others, thr);
        assert_matchers_equal_reference(&lattice.scene, &lattice.scene.boxes, thr);
    }
}
