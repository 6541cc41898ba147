use omg_active::{ActiveLearner, CandidatePool};
use omg_core::runtime::ThreadPool;
use omg_core::stream::Prepare;
use omg_core::AssertionSet;
use rand::rngs::StdRng;

use crate::{stream_score_scenario, Scenario};

/// Claims the selected pool positions from a learner's (ascending)
/// `unlabeled` index list: maps positions to pool indices, sorts and
/// **deduplicates** them (a selection strategy may emit the same position
/// twice; labeling the same sample twice would double-count the labeling
/// budget and double-weight the sample in training), removes them from
/// `unlabeled` via binary search over the sorted claims, and returns the
/// claimed pool indices in ascending order.
///
/// # Panics
///
/// Panics if a selection position is out of range of `unlabeled`.
fn claim_selection(unlabeled: &mut Vec<usize>, selection: &[usize]) -> Vec<usize> {
    let mut chosen: Vec<usize> = selection.iter().map(|&p| unlabeled[p]).collect();
    chosen.sort_unstable();
    chosen.dedup();
    unlabeled.retain(|i| chosen.binary_search(i).is_err());
    chosen
}

/// The one active learner every trainable scenario shares — the
/// [`ActiveLearner`] the round loop ([`omg_active::run_rounds`]) drives
/// for Figures 4, 5, and 9, replacing the per-scenario learner structs
/// the use cases used to duplicate.
///
/// Each round: run the model over the pool, stream-score the resulting
/// items (one preparation per window, shared by the whole assertion
/// set), project severities/uncertainties onto the still-unlabeled
/// positions, then label the claimed selection via the scenario's
/// labeling hook and retrain via its training hook.
pub struct ScenarioLearner<Sc: Scenario> {
    scenario: Sc,
    model: Sc::Model,
    stream_set: AssertionSet<Sc::Sample, Sc::Prep>,
    preparer: Box<dyn Prepare<Sc::Sample, Prepared = Sc::Prep>>,
    /// Pool positions still unlabeled, ascending.
    unlabeled: Vec<usize>,
    labels: Sc::Labels,
    runtime: ThreadPool,
}

impl<Sc: Scenario> ScenarioLearner<Sc> {
    /// Creates a learner around a scenario and its pretrained model,
    /// scoring pools sequentially by default (override with
    /// [`ScenarioLearner::with_runtime`]; results are identical at any
    /// thread count, only wall-clock changes).
    ///
    /// # Panics
    ///
    /// Panics if the scenario does not train (monitoring-only scenarios
    /// have no labeling or evaluation semantics to drive rounds with).
    pub fn new(scenario: Sc, model: Sc::Model) -> Self {
        assert!(
            scenario.trains(),
            "scenario {:?} is monitoring-only: it cannot drive active-learning rounds",
            scenario.name()
        );
        let stream_set = scenario.prepared_set();
        let preparer = scenario.preparer();
        let unlabeled = (0..scenario.pool_len()).collect();
        let labels = scenario.initial_labels();
        Self {
            scenario,
            model,
            stream_set,
            preparer,
            unlabeled,
            labels,
            runtime: ThreadPool::sequential(),
        }
    }

    /// Overrides the scoring runtime.
    #[must_use]
    pub fn with_runtime(mut self, runtime: ThreadPool) -> Self {
        self.runtime = runtime;
        self
    }

    /// The scenario under the learner.
    pub fn scenario(&self) -> &Sc {
        &self.scenario
    }

    /// The current model.
    pub fn model(&self) -> &Sc::Model {
        &self.model
    }

    /// Number of pool positions still unlabeled.
    pub fn unlabeled_len(&self) -> usize {
        self.unlabeled.len()
    }
}

impl<Sc: Scenario> ActiveLearner for ScenarioLearner<Sc> {
    fn pool(&mut self) -> CandidatePool {
        // Score the whole stream once (windows need neighbours), then
        // project onto the unlabeled positions.
        let items = self.scenario.run_model(&self.model);
        let (sev, unc) = stream_score_scenario(
            &self.scenario,
            &self.stream_set,
            &self.preparer,
            &items,
            &self.runtime,
        );
        let severities = self
            .unlabeled
            .iter()
            .map(|&i| sev.row(i).to_vec())
            .collect();
        let uncertainties = self.unlabeled.iter().map(|&i| unc[i]).collect();
        CandidatePool::new(severities, uncertainties).expect("consistent pool")
    }

    fn label_and_train(&mut self, selection: &[usize], rng: &mut StdRng) {
        for &i in &claim_selection(&mut self.unlabeled, selection) {
            self.scenario.label_into(&mut self.labels, i);
        }
        self.scenario.train(&mut self.model, &self.labels, rng);
    }

    fn evaluate(&mut self) -> f64 {
        self.scenario.evaluate(&self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{ToyModel, ToyScenario};
    use rand::SeedableRng;

    #[test]
    fn claim_selection_dedups_and_removes() {
        let mut unlabeled: Vec<usize> = vec![10, 20, 30, 40, 50];
        // Positions 1 and 3, with 1 repeated: the repeat must not claim
        // (or count) twice.
        let chosen = claim_selection(&mut unlabeled, &[3, 1, 1]);
        assert_eq!(chosen, vec![20, 40]);
        assert_eq!(unlabeled, vec![10, 30, 50]);
        // Claiming nothing changes nothing.
        assert_eq!(claim_selection(&mut unlabeled, &[]), Vec::<usize>::new());
        assert_eq!(unlabeled, vec![10, 30, 50]);
    }

    #[test]
    fn learner_rounds_shrink_the_pool_and_label_once() {
        let mut learner = ScenarioLearner::new(ToyScenario::new(30), ToyModel::default());
        let mut rng = StdRng::seed_from_u64(3);
        let pool = learner.pool();
        assert_eq!(pool.len(), 30);
        // Duplicate positions claim (and label) once.
        learner.label_and_train(&[0, 5, 0, 9], &mut rng);
        assert_eq!(learner.unlabeled_len(), 27);
        // The toy's metric counts labeled positions.
        assert_eq!(learner.evaluate(), 3.0);
        assert_eq!(learner.pool().len(), 27);
    }

    #[test]
    #[should_panic(expected = "monitoring-only")]
    fn monitoring_only_scenarios_cannot_build_learners() {
        ScenarioLearner::new(ToyScenario::monitoring_only(5), ToyModel::default());
    }
}
