/// Numerically stable softmax of a logit slice.
///
/// Returns a probability vector summing to 1 (up to floating-point error).
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// In-place variant of [`softmax`].
///
/// # Panics
///
/// Panics if `values` is empty.
fn softmax_in_place(values: &mut [f64]) {
    assert!(!values.is_empty(), "softmax of empty slice");
    let max = values
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, omg_core::float::fmax);
    let mut sum = 0.0;
    for v in values.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in values.iter_mut() {
        *v /= sum;
    }
}

/// Cross-entropy loss `-ln p[target]`, clamped away from `ln 0`.
///
/// # Panics
///
/// Panics if `target` is out of range for `probs`.
pub fn cross_entropy(probs: &[f64], target: usize) -> f64 {
    assert!(target < probs.len(), "target class out of range");
    -probs[target].max(1e-12).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let p = softmax(&[5.0; 4]);
        for v in &p {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn softmax_empty_panics() {
        softmax(&[]);
    }

    #[test]
    fn cross_entropy_basics() {
        assert!(cross_entropy(&[1.0, 0.0], 0) < 1e-10);
        assert!(cross_entropy(&[0.5, 0.5], 0) > 0.0);
        // Clamped: never infinite.
        assert!(cross_entropy(&[0.0, 1.0], 0).is_finite());
    }

    #[test]
    fn cross_entropy_prefers_confident_correct() {
        let confident = cross_entropy(&[0.9, 0.1], 0);
        let unsure = cross_entropy(&[0.6, 0.4], 0);
        assert!(confident < unsure);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_bad_target() {
        cross_entropy(&[0.5, 0.5], 2);
    }

    #[test]
    fn softmax_keeps_nan_visible_in_any_order() {
        let mut a = [0.0, f64::NAN];
        let mut b = [f64::NAN, 0.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        // The fmax reduction never drops the NaN operand, so a poisoned
        // logit poisons the distribution instead of passing as a
        // confident class — regardless of where in the slice it sits.
        assert!(a.iter().chain(&b).all(|v| v.is_nan()));
    }
}
