use rand::seq::SliceRandom;
use rand::Rng;

/// An in-memory labeled dataset: dense feature vectors plus class labels
/// and optional per-example weights (used to down-weight noisy weak
/// labels).
///
/// # Example
///
/// ```
/// use omg_learn::Dataset;
///
/// let mut d = Dataset::new(2);
/// d.push(vec![0.0, 1.0], 1);
/// d.push_weighted(vec![1.0, 0.0], 0, 0.5);
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.label(0), 1);
/// assert_eq!(d.weight(1), 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    dim: usize,
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
    weights: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset for feature vectors of length `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self {
            dim,
            features: Vec::new(),
            labels: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Appends an example with weight 1.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.dim()`.
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        self.push_weighted(features, label, 1.0);
    }

    /// Appends an example with an explicit weight.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.dim()` or the weight is negative
    /// or non-finite.
    pub fn push_weighted(&mut self, features: Vec<f64>, label: usize, weight: f64) {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative"
        );
        self.features.push(features);
        self.labels.push(label);
        self.weights.push(weight);
    }

    /// Features of example `i`.
    pub fn features(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// Label of example `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Weight of example `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Returns a random permutation of example indices.
    pub fn shuffled_indices<R: Rng>(&self, rng: &mut R) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx
    }

    /// Splits into two datasets; the first receives `fraction` of the
    /// examples (in current order; shuffle first for a random split).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn split(&self, fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let cut = (self.len() as f64 * fraction).round() as usize;
        let mut a = Dataset::new(self.dim);
        let mut b = Dataset::new(self.dim);
        for i in 0..self.len() {
            let target = if i < cut { &mut a } else { &mut b };
            target.push_weighted(self.features[i].clone(), self.labels[i], self.weights[i]);
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(vec![i as f64, (10 - i) as f64], i % 3);
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = sample();
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.features(3), &[3.0, 7.0]);
        assert_eq!(d.label(4), 1);
        assert_eq!(d.weight(0), 1.0);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_wrong_dim_panics() {
        Dataset::new(3).push(vec![1.0], 0);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn negative_weight_panics() {
        Dataset::new(1).push_weighted(vec![0.0], 0, -1.0);
    }

    #[test]
    fn split_fractions() {
        let d = sample();
        let (a, b) = d.split(0.7);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3);
        // First element of b is original index 7.
        assert_eq!(b.features(0), &[7.0, 3.0]);
    }

    #[test]
    fn split_extremes() {
        let d = sample();
        let (a, b) = d.split(0.0);
        assert!(a.is_empty());
        assert_eq!(b.len(), 10);
        let (a, b) = d.split(1.0);
        assert_eq!(a.len(), 10);
        assert!(b.is_empty());
    }

    #[test]
    fn shuffled_indices_is_permutation() {
        let d = sample();
        let mut rng = StdRng::seed_from_u64(1);
        let mut idx = d.shuffled_indices(&mut rng);
        idx.sort_unstable();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }
}
