use rand::rngs::StdRng;

use crate::{CandidatePool, SelectionStrategy};

/// The domain side of an active-learning experiment: scoring the pool,
/// labeling + retraining, and evaluation. Implemented per task in the
/// experiment harness (night-street, NuScenes, ECG).
pub trait ActiveLearner {
    /// Scores the current unlabeled pool: runs the model and the
    /// assertions over it and returns severity vectors and uncertainty
    /// scores. Index `i` of the returned pool must correspond to the
    /// `i`-th currently-unlabeled candidate.
    fn pool(&mut self) -> CandidatePool;

    /// Labels the selected pool positions (indices into the pool most
    /// recently returned by [`ActiveLearner::pool`]), adds them to the
    /// training set, retrains, and removes them from the unlabeled pool.
    fn label_and_train(&mut self, selection: &[usize], rng: &mut StdRng);

    /// Evaluates the current model on the held-out test set (mAP or
    /// accuracy, in the unit the experiment reports).
    fn evaluate(&mut self) -> f64;
}

/// One round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round index.
    pub round: usize,
    /// How many points were actually labeled this round.
    pub labeled: usize,
    /// The evaluation metric after retraining.
    pub metric: f64,
}

/// Runs `rounds` rounds of batch active learning: score pool → select
/// `budget` points → label & retrain → evaluate (the protocol of §5.4:
/// "data points that have been collected \[are\] labeled in bulk").
///
/// Returns one [`RoundRecord`] per round.
pub fn run_rounds<L: ActiveLearner + ?Sized, S: SelectionStrategy + ?Sized>(
    learner: &mut L,
    strategy: &mut S,
    rounds: usize,
    budget: usize,
    rng: &mut StdRng,
) -> Vec<RoundRecord> {
    let mut records = Vec::with_capacity(rounds);
    for round in 1..=rounds {
        let pool = learner.pool();
        let selection = strategy.select(&pool, budget, rng);
        learner.label_and_train(&selection, rng);
        let metric = learner.evaluate();
        records.push(RoundRecord {
            round,
            labeled: selection.len(),
            metric,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BalStrategy, FallbackPolicy, RandomStrategy};
    use rand::SeedableRng;

    /// A toy learner: 100 points, 20 of them "hard" (flagged by one
    /// assertion). The metric is the fraction of hard points labeled, and
    /// labeling a hard point "fixes" it (it stops firing) — a miniature of
    /// the real dynamics.
    struct ToyLearner {
        hard: Vec<bool>,
        labeled: Vec<bool>,
    }

    impl ToyLearner {
        fn new() -> Self {
            Self {
                hard: (0..100).map(|i| i % 5 == 0).collect(),
                labeled: vec![false; 100],
            }
        }

        /// Global indices of still-unlabeled points.
        fn unlabeled(&self) -> Vec<usize> {
            (0..100).filter(|&i| !self.labeled[i]).collect()
        }
    }

    impl ActiveLearner for ToyLearner {
        fn pool(&mut self) -> CandidatePool {
            let idx = self.unlabeled();
            let severities = idx
                .iter()
                .map(|&i| vec![if self.hard[i] { 1.0 } else { 0.0 }])
                .collect();
            let uncertainties = vec![0.5; idx.len()];
            CandidatePool::new(severities, uncertainties).unwrap()
        }

        fn label_and_train(&mut self, selection: &[usize], _rng: &mut StdRng) {
            let idx = self.unlabeled();
            for &pos in selection {
                self.labeled[idx[pos]] = true;
            }
        }

        fn evaluate(&mut self) -> f64 {
            let fixed = (0..100)
                .filter(|&i| self.hard[i] && self.labeled[i])
                .count();
            fixed as f64 / 20.0
        }
    }

    #[test]
    fn runner_produces_one_record_per_round() {
        let mut learner = ToyLearner::new();
        let mut strategy = RandomStrategy;
        let mut rng = StdRng::seed_from_u64(3);
        let records = run_rounds(&mut learner, &mut strategy, 4, 10, &mut rng);
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.round, i + 1);
            assert_eq!(r.labeled, 10);
        }
        // Metric is monotone for this toy.
        for w in records.windows(2) {
            assert!(w[1].metric >= w[0].metric);
        }
    }

    #[test]
    fn assertion_guided_selection_beats_random_on_the_toy() {
        let run = |strategy: &mut dyn SelectionStrategy| {
            let mut learner = ToyLearner::new();
            let mut rng = StdRng::seed_from_u64(7);
            let records = run_rounds(&mut learner, strategy, 2, 10, &mut rng);
            records.last().unwrap().metric
        };
        let random = run(&mut RandomStrategy);
        let bal = run(&mut BalStrategy::new(FallbackPolicy::Random));
        assert!(
            bal > random,
            "BAL should label hard points faster: bal {bal} vs random {random}"
        );
        // BAL's first round labels only flagged points: 10 of 20 hard.
        assert!(
            (bal - 1.0).abs() < 1e-9,
            "two BAL rounds fix all hard points: {bal}"
        );
    }

    #[test]
    fn pool_shrinks_as_labeling_proceeds() {
        let mut learner = ToyLearner::new();
        let mut rng = StdRng::seed_from_u64(1);
        let p0 = learner.pool();
        assert_eq!(p0.len(), 100);
        learner.label_and_train(&[0, 1, 2], &mut rng);
        assert_eq!(learner.pool().len(), 97);
    }
}
