use std::error::Error;
use std::fmt;

use omg_core::runtime::ThreadPool;

/// Error constructing a [`CandidatePool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolShapeError {
    detail: String,
}

impl fmt::Display for PoolShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inconsistent pool shape: {}", self.detail)
    }
}

impl Error for PoolShapeError {}

/// The unlabeled candidate pool presented to a selection strategy.
///
/// Each candidate carries:
///
/// * a **severity vector** — one entry per registered assertion, `0`
///   meaning the assertion abstained on this point. This is BAL's bandit
///   context ("Each entry in a feature vector is the severity score from a
///   model assertion", §3).
/// * an **uncertainty score** — the model's least-confidence score, used
///   by the uncertainty baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePool {
    severities: Vec<Vec<f64>>,
    uncertainties: Vec<f64>,
    num_assertions: usize,
}

impl CandidatePool {
    /// Creates a pool.
    ///
    /// # Errors
    ///
    /// Returns [`PoolShapeError`] if the two inputs disagree in length or
    /// the severity rows are ragged.
    pub fn new(severities: Vec<Vec<f64>>, uncertainties: Vec<f64>) -> Result<Self, PoolShapeError> {
        if severities.len() != uncertainties.len() {
            return Err(PoolShapeError {
                detail: format!(
                    "{} severity rows vs {} uncertainty scores",
                    severities.len(),
                    uncertainties.len()
                ),
            });
        }
        let num_assertions = severities.first().map_or(0, Vec::len);
        if severities.iter().any(|r| r.len() != num_assertions) {
            return Err(PoolShapeError {
                detail: "ragged severity rows".to_string(),
            });
        }
        Ok(Self {
            severities,
            uncertainties,
            num_assertions,
        })
    }

    /// Builds a pool by scoring every candidate in parallel over the
    /// runtime: `scorer(i)` returns candidate `i`'s `(severity vector,
    /// uncertainty)` pair. Results merge in candidate order, so the pool
    /// is identical at any thread count (the scorer must be a pure
    /// function of the index).
    ///
    /// This is the fan-out path the experiment harness uses to
    /// construct pools: running the assertion set over every candidate
    /// window dominates pool-construction cost.
    ///
    /// # Errors
    ///
    /// Returns [`PoolShapeError`] if the scorer produces ragged severity
    /// vectors.
    pub fn build_parallel<F>(
        runtime: &ThreadPool,
        n: usize,
        scorer: F,
    ) -> Result<Self, PoolShapeError>
    where
        F: Fn(usize) -> (Vec<f64>, f64) + Sync,
    {
        let (severities, uncertainties) = runtime.map_indexed(n, scorer).into_iter().unzip();
        Self::new(severities, uncertainties)
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.severities.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.severities.is_empty()
    }

    /// Number of assertion dimensions (`d`).
    pub fn num_assertions(&self) -> usize {
        self.num_assertions
    }

    /// Severity of assertion `m` on candidate `i`.
    pub fn severity(&self, i: usize, m: usize) -> f64 {
        // PANIC: documented accessor contract — i and m come from
        // 0..len() / 0..num_assertions(), the pool's own id spaces.
        self.severities[i][m]
    }

    /// The full severity vector (context) of candidate `i`.
    pub fn context(&self, i: usize) -> &[f64] {
        // PANIC: same candidate-id contract as severity().
        &self.severities[i]
    }

    /// Model uncertainty of candidate `i`.
    pub fn uncertainty(&self, i: usize) -> f64 {
        // PANIC: same candidate-id contract as severity().
        self.uncertainties[i]
    }

    /// Candidates on which assertion `m` fired (severity > 0).
    pub fn triggered_by(&self, m: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.severities[i][m] > 0.0)
            .collect()
    }

    /// Candidates flagged by at least one assertion.
    pub fn any_triggered(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.severities[i].iter().any(|&s| s > 0.0))
            .collect()
    }

    /// Number of candidates on which each assertion fired (the fire-count
    /// vector BAL differences across rounds).
    pub fn fire_counts(&self) -> Vec<usize> {
        (0..self.num_assertions)
            .map(|m| self.triggered_by(m).len())
            .collect()
    }

    /// Per-assertion fire *rates* (counts normalized by pool size), which
    /// are comparable across rounds even as the pool shrinks.
    pub fn fire_rates(&self) -> Vec<f64> {
        let n = self.len().max(1) as f64;
        self.fire_counts()
            .into_iter()
            .map(|c| c as f64 / n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> CandidatePool {
        CandidatePool::new(
            vec![
                vec![1.0, 0.0],
                vec![0.0, 2.0],
                vec![3.0, 1.0],
                vec![0.0, 0.0],
            ],
            vec![0.1, 0.9, 0.5, 0.3],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let p = pool();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.num_assertions(), 2);
        assert_eq!(p.severity(2, 0), 3.0);
        assert_eq!(p.context(1), &[0.0, 2.0]);
        assert_eq!(p.uncertainty(1), 0.9);
    }

    #[test]
    fn triggered_queries() {
        let p = pool();
        assert_eq!(p.triggered_by(0), vec![0, 2]);
        assert_eq!(p.triggered_by(1), vec![1, 2]);
        assert_eq!(p.any_triggered(), vec![0, 1, 2]);
        assert_eq!(p.fire_counts(), vec![2, 2]);
        assert_eq!(p.fire_rates(), vec![0.5, 0.5]);
    }

    #[test]
    fn shape_errors() {
        assert!(CandidatePool::new(vec![vec![1.0]], vec![]).is_err());
        assert!(CandidatePool::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn empty_pool() {
        let p = CandidatePool::new(vec![], vec![]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.num_assertions(), 0);
        assert!(p.fire_counts().is_empty());
    }

    #[test]
    fn build_parallel_is_thread_count_invariant() {
        let scorer = |i: usize| {
            (
                vec![i as f64, if i % 3 == 0 { 1.0 } else { 0.0 }],
                i as f64 / 100.0,
            )
        };
        let seq = CandidatePool::build_parallel(&ThreadPool::sequential(), 50, scorer).unwrap();
        for threads in [2, 8] {
            let par = CandidatePool::build_parallel(&ThreadPool::new(threads), 50, scorer).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
        assert_eq!(seq.len(), 50);
        assert_eq!(seq.num_assertions(), 2);
        // Ragged scorers surface as shape errors.
        let ragged =
            CandidatePool::build_parallel(&ThreadPool::sequential(), 3, |i| (vec![0.0; i], 0.0));
        assert!(ragged.is_err());
    }
}
