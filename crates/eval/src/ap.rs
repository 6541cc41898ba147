/// One point on a precision-recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PrPoint {
    /// Recall in `[0, 1]`.
    pub recall: f64,
    /// Precision in `[0, 1]`.
    pub precision: f64,
}

/// All-point interpolated average precision.
///
/// `records` holds `(score, is_true_positive)` for every detection of one
/// class across the whole evaluation set; `n_gt` is the number of
/// ground-truth boxes of that class. Records are sorted by descending score
/// internally, the precision envelope is applied (each precision value is
/// replaced by the maximum precision at any equal-or-higher recall), and
/// the area under the resulting step function is returned.
///
/// Returns `0.0` when `n_gt == 0` or there are no records.
pub fn average_precision(records: &[(f64, bool)], n_gt: usize) -> f64 {
    if n_gt == 0 || records.is_empty() {
        return 0.0;
    }
    let curve = pr_curve(records, n_gt);
    area_under_envelope(&curve)
}

/// The raw precision-recall curve (one point per detection, in descending
/// score order). Exposed so experiments can plot or inspect the curve, not
/// just its area (C-INTERMEDIATE).
fn pr_curve(records: &[(f64, bool)], n_gt: usize) -> Vec<PrPoint> {
    let mut sorted: Vec<(f64, bool)> = records.to_vec();
    sorted.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut out = Vec::with_capacity(sorted.len());
    for (_, is_tp) in sorted {
        if is_tp {
            tp += 1;
        } else {
            fp += 1;
        }
        out.push(PrPoint {
            recall: tp as f64 / n_gt as f64,
            precision: tp as f64 / (tp + fp) as f64,
        });
    }
    out
}

/// Area under the precision envelope of a PR curve (all-point
/// interpolation as used by PASCAL VOC 2010+ and COCO).
fn area_under_envelope(curve: &[PrPoint]) -> f64 {
    if curve.is_empty() {
        return 0.0;
    }
    // Envelope: precision at recall r is max precision at recall >= r.
    let mut env: Vec<PrPoint> = curve.to_vec();
    // PANIC: i + 1 <= len - 1 by the saturating_sub'd range bound.
    for i in (0..env.len().saturating_sub(1)).rev() {
        env[i].precision = env[i].precision.max(env[i + 1].precision);
    }
    let mut area = 0.0;
    let mut prev_recall = 0.0;
    for p in &env {
        if p.recall > prev_recall {
            area += (p.recall - prev_recall) * p.precision;
            prev_recall = p.recall;
        }
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_gives_ap_one() {
        let recs = vec![(0.9, true), (0.8, true), (0.7, true)];
        assert!((average_precision(&recs, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_false_positives_give_zero() {
        let recs = vec![(0.9, false), (0.8, false)];
        assert_eq!(average_precision(&recs, 5), 0.0);
    }

    #[test]
    fn no_gt_gives_zero() {
        assert_eq!(average_precision(&[(0.9, true)], 0), 0.0);
        assert_eq!(average_precision(&[], 3), 0.0);
    }

    #[test]
    fn known_small_case() {
        // TP, FP, TP with 2 GT:
        //   after det1: r=0.5, p=1.0
        //   after det2: r=0.5, p=0.5
        //   after det3: r=1.0, p=2/3
        // Envelope: p(0..0.5]=1.0, p(0.5..1.0]=2/3 -> AP = 0.5*1 + 0.5*2/3.
        let recs = vec![(0.9, true), (0.8, false), (0.7, true)];
        let expected = 0.5 + 0.5 * (2.0 / 3.0);
        assert!((average_precision(&recs, 2) - expected).abs() < 1e-12);
    }

    #[test]
    fn missed_gt_caps_recall() {
        // One TP but two GT: AP = 0.5.
        let recs = vec![(0.9, true)];
        assert!((average_precision(&recs, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn input_order_does_not_matter() {
        let a = vec![(0.9, true), (0.8, false), (0.7, true)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(average_precision(&a, 2), average_precision(&b, 2));
    }

    #[test]
    fn better_ranking_gives_higher_ap() {
        // Same outcomes, but errors ranked above hits in the second case.
        let good = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        let bad = vec![(0.9, false), (0.8, false), (0.2, true), (0.1, true)];
        assert!(average_precision(&good, 2) > average_precision(&bad, 2));
    }

    #[test]
    fn pr_curve_monotone_recall() {
        let recs = vec![(0.9, true), (0.8, false), (0.7, true), (0.6, true)];
        let curve = pr_curve(&recs, 3);
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall);
        }
        assert_eq!(curve.len(), 4);
    }

    #[test]
    fn ap_is_bounded() {
        let recs = vec![(0.9, true), (0.5, false), (0.4, true), (0.2, false)];
        let ap = average_precision(&recs, 4);
        assert!((0.0..=1.0).contains(&ap));
    }

    #[test]
    fn nan_scores_sort_first_and_never_panic() {
        let recs = [(f64::NAN, false), (0.5, true)];
        let fwd = pr_curve(&recs, 1);
        let rev = pr_curve(&[recs[1], recs[0]], 1);
        // +NaN is the greatest confidence under the total order, so the
        // poisoned record leads the curve in either input order.
        assert_eq!(fwd, rev);
        assert_eq!(fwd[0].precision, 0.0);
        assert_eq!(fwd[1].recall, 1.0);
    }
}
