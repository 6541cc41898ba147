//! Order statistics and small-sample summaries used by the experiment
//! harness: percentile ranks (Figure 3), means ± standard errors
//! (Figures 4/5/9 report multi-trial averages) and proportions
//! (Table 3).

/// Arithmetic mean; `0.0` for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance (`n - 1` denominator); `0.0` for fewer than two
/// samples.
fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standard error of the mean (`s / sqrt(n)`); `0.0` for fewer than two
/// samples.
pub fn std_err(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        0.0
    } else {
        std_dev(xs) / (xs.len() as f64).sqrt()
    }
}

/// The `q`-th quantile (`q` in `[0, 1]`) with linear interpolation between
/// order statistics.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(omg_core::float::total_order);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The percentile rank of `x` within `population`: the percentage of
/// population values that are `<= x`, in `[0, 100]`.
///
/// This is the statistic of the paper's Figure 3 ("the percentile of
/// confidence among all the boxes"). Returns `0.0` for an empty
/// population.
pub fn percentile_rank(population: &[f64], x: f64) -> f64 {
    if population.is_empty() {
        return 0.0;
    }
    let below = population.iter().filter(|&&v| v <= x).count();
    100.0 * below as f64 / population.len() as f64
}

/// A proportion with its numerator and denominator retained, used for
/// precision reporting (Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    /// Number of successes.
    pub hits: usize,
    /// Number of trials.
    pub total: usize,
}

impl Proportion {
    /// The proportion as a fraction in `[0, 1]`; `0.0` when `total == 0`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// The proportion as a percentage.
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }
}

/// Counts how many items satisfy `pred` and returns the proportion.
pub fn proportion<T>(items: &[T], pred: impl Fn(&T) -> bool) -> Proportion {
    Proportion {
        hits: items.iter().filter(|x| pred(x)).count(),
        total: items.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_stderr() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_err(&xs) - (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(std_err(&[1.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        // Order independence.
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(quantile(&shuffled, 0.5), quantile(&xs, 0.5));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn percentile_rank_basic() {
        let pop: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile_rank(&pop, 94.0) - 94.0).abs() < 1e-12);
        assert_eq!(percentile_rank(&pop, 0.0), 0.0);
        assert_eq!(percentile_rank(&pop, 1000.0), 100.0);
        assert_eq!(percentile_rank(&[], 5.0), 0.0);
    }

    #[test]
    fn proportion_counts() {
        let xs = [1, 2, 3, 4, 5, 6];
        let p = proportion(&xs, |&x| x % 2 == 0);
        assert_eq!(p.hits, 3);
        assert_eq!(p.total, 6);
        assert!((p.fraction() - 0.5).abs() < 1e-12);
        assert!((p.percent() - 50.0).abs() < 1e-12);
        let empty: [i32; 0] = [];
        assert_eq!(proportion(&empty, |_| true).fraction(), 0.0);
    }

    #[test]
    fn quantile_is_deterministic_with_nan_present() {
        let xs = [2.0, f64::NAN, 1.0];
        let ys = [f64::NAN, 1.0, 2.0];
        // NaN sorts above every real under the total order: lower
        // quantiles stay NaN-free and identical for any input order,
        // and the poison surfaces only at the top.
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert_eq!(quantile(&ys, 0.5), 2.0);
        assert!(quantile(&ys, 1.0).is_nan());
    }
}
