use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use omg_active::ActiveLearner;
use omg_core::runtime::ThreadPool;
use omg_core::stream::{CountingPrepare, Prepare};
use omg_core::AssertionSet;
use rand::rngs::StdRng;

use crate::{score_scenario, stream_score_scenario, Scenario, ScenarioLearner};

/// Per-position severity rows (one contiguous columnar
/// [`omg_core::SeverityMatrix`]) plus per-position uncertainties — the
/// dense output of both scoring paths.
pub type Scores = (omg_core::SeverityMatrix, Vec<f64>);

/// The type-erased runtime face of a registered scenario: what the
/// scenario registry hands to binaries, benches, and the conformance
/// suite, so they can iterate heterogeneous scenarios (video windows, AV
/// frames, ECG windows, news scenes, fusion windows) behind one object.
///
/// Everything here is closed over a fixed scenario + pretrained model +
/// precomputed item stream, so repeated scoring calls measure scoring,
/// not model re-runs.
pub trait DynScenario: Send + Sync {
    /// Short stable identifier (keys `BENCH_stream_<name>.json`).
    fn name(&self) -> &'static str;

    /// Human-readable task name for experiment tables.
    fn title(&self) -> &'static str;

    /// The unit of the scenario's evaluation metric.
    fn metric_unit(&self) -> &'static str;

    /// Items of temporal context on each side of a window's center.
    fn window_half(&self) -> usize;

    /// Number of stream positions (= windows scored per pass).
    fn len(&self) -> usize;

    /// Whether the stream is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Assertion names, in severity-vector dimension order.
    fn assertion_names(&self) -> Vec<String>;

    /// Batch-scores the stream (the self-contained reference path).
    fn score_batch(&self, pool: &ThreadPool) -> Scores;

    /// Stream-scores the stream (the prepare-once incremental path);
    /// bit-for-bit equal to [`DynScenario::score_batch`] at any thread
    /// count.
    fn score_stream(&self, pool: &ThreadPool) -> Scores;

    /// Stream-scores with a counting probe wrapped around the preparer,
    /// returning the scores plus how many times preparation ran — the
    /// instrument behind the conformance suite's prepare-once checks.
    fn score_stream_counting(&self, pool: &ThreadPool) -> (Scores, usize);

    /// A fresh active learner over the scenario's pool (scoring on
    /// `runtime`), or `None` for monitoring-only scenarios.
    fn learner(&self, runtime: ThreadPool) -> Option<Box<dyn ActiveLearner>>;

    /// Runs the scenario's weak-supervision rule from the pretrained
    /// model, or `None` if it has no rule.
    fn weak_supervision(&self, rng: &mut StdRng) -> Option<(f64, f64)>;
}

/// Binds a [`Scenario`] to a pretrained model and its precomputed item
/// stream, erasing the associated types behind [`DynScenario`].
pub struct ScenarioHarness<Sc: Scenario> {
    scenario: Sc,
    model: Sc::Model,
    /// The model's pass over the pool, computed on first scoring call
    /// (weak-supervision-only callers never pay for it) and shared by
    /// every scoring call after that.
    items: OnceLock<Vec<Sc::Item>>,
    batch_set: AssertionSet<Sc::Sample>,
    stream_set: AssertionSet<Sc::Sample, Sc::Prep>,
    preparer: Box<dyn Prepare<Sc::Sample, Prepared = Sc::Prep>>,
}

impl<Sc> ScenarioHarness<Sc>
where
    Sc: Scenario + Clone + 'static,
    Sc::Model: Clone,
{
    /// Binds the scenario and model and captures both assertion sets,
    /// ready for repeated scoring.
    pub fn new(scenario: Sc, model: Sc::Model) -> Self {
        let batch_set = scenario.assertion_set();
        let stream_set = scenario.prepared_set();
        let preparer = scenario.preparer();
        Self {
            scenario,
            model,
            items: OnceLock::new(),
            batch_set,
            stream_set,
            preparer,
        }
    }

    /// Boxes the harness as a registry entry.
    pub fn boxed(scenario: Sc, model: Sc::Model) -> Box<dyn DynScenario> {
        Box::new(Self::new(scenario, model))
    }

    fn items(&self) -> &[Sc::Item] {
        self.items
            .get_or_init(|| self.scenario.run_model(&self.model))
    }
}

impl<Sc> DynScenario for ScenarioHarness<Sc>
where
    Sc: Scenario + Clone + 'static,
    Sc::Model: Clone,
{
    fn name(&self) -> &'static str {
        self.scenario.name()
    }

    fn title(&self) -> &'static str {
        self.scenario.title()
    }

    fn metric_unit(&self) -> &'static str {
        self.scenario.metric_unit()
    }

    fn window_half(&self) -> usize {
        self.scenario.window_half()
    }

    fn len(&self) -> usize {
        self.scenario.pool_len()
    }

    fn assertion_names(&self) -> Vec<String> {
        self.batch_set
            .names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    fn score_batch(&self, pool: &ThreadPool) -> Scores {
        score_scenario(&self.scenario, &self.batch_set, self.items(), pool)
    }

    fn score_stream(&self, pool: &ThreadPool) -> Scores {
        stream_score_scenario(
            &self.scenario,
            &self.stream_set,
            &self.preparer,
            self.items(),
            pool,
        )
    }

    fn score_stream_counting(&self, pool: &ThreadPool) -> (Scores, usize) {
        let counter = Arc::new(AtomicUsize::new(0));
        let probe = CountingPrepare::new(self.scenario.preparer(), counter.clone());
        let scores =
            stream_score_scenario(&self.scenario, &self.stream_set, &probe, self.items(), pool);
        (scores, counter.load(Ordering::SeqCst))
    }

    fn learner(&self, runtime: ThreadPool) -> Option<Box<dyn ActiveLearner>> {
        self.scenario.trains().then(|| {
            Box::new(
                ScenarioLearner::new(self.scenario.clone(), self.model.clone())
                    .with_runtime(runtime),
            ) as Box<dyn ActiveLearner>
        })
    }

    fn weak_supervision(&self, rng: &mut StdRng) -> Option<(f64, f64)> {
        self.scenario.weak_supervision(&self.model, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{ToyModel, ToyScenario};
    use rand::SeedableRng;

    fn harness(n: usize) -> Box<dyn DynScenario> {
        ScenarioHarness::boxed(ToyScenario::new(n), ToyModel::default())
    }

    #[test]
    fn erased_scoring_matches_direct_scoring() {
        let h = harness(25);
        assert_eq!(h.name(), "toy");
        assert_eq!(h.len(), 25);
        assert!(!h.is_empty());
        assert_eq!(h.window_half(), 1);
        assert_eq!(h.assertion_names(), vec!["negative-sum", "large-center"]);
        let want = h.score_batch(&ThreadPool::sequential());
        for threads in [1, 2, 8] {
            assert_eq!(h.score_stream(&ThreadPool::new(threads)), want);
        }
        let (scores, prepares) = h.score_stream_counting(&ThreadPool::sequential());
        assert_eq!(scores, want);
        assert_eq!(prepares, 25, "one preparation per window sequentially");
    }

    #[test]
    fn erased_learner_runs_rounds() {
        let h = harness(30);
        let mut learner = h.learner(ThreadPool::sequential()).expect("toy trains");
        let mut rng = StdRng::seed_from_u64(9);
        let records = omg_active::run_rounds(
            learner.as_mut(),
            &mut omg_active::RandomStrategy,
            2,
            5,
            &mut rng,
        );
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].metric, 10.0, "two rounds label 10 toy points");
    }

    #[test]
    fn monitoring_only_harness_has_no_learner_and_no_weak_rule() {
        let h = ScenarioHarness::boxed(ToyScenario::monitoring_only(10), ToyModel::default());
        assert!(h.learner(ThreadPool::sequential()).is_none());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(h.weak_supervision(&mut rng).is_none());
    }
}
