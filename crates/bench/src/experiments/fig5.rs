//! Figure 5: active learning for ECG with a single assertion.

use omg_active::SelectionStrategy;
use omg_active::{run_rounds, BalStrategy, FallbackPolicy, RandomStrategy, UncertaintyStrategy};
use omg_eval::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

use omg_core::runtime::ThreadPool;
use omg_scenario::ScenarioLearner;

use crate::experiments::trial_seeds;
use crate::{ecgx, summarize_series};

/// Figure 5 compares only random, uncertainty, and BAL ("due to the
/// limited data quantities for the ECG dataset, we were unable to deploy
/// more than one assertion" — uniform-MA degenerates to BAL's round 0).
fn strategies() -> Vec<(&'static str, Box<dyn SelectionStrategy>)> {
    vec![
        ("Random", Box::new(RandomStrategy)),
        ("Uncertainty", Box::new(UncertaintyStrategy)),
        (
            "BAL",
            Box::new(BalStrategy::new(FallbackPolicy::Uncertainty)),
        ),
    ]
}

/// Runs the ECG active-learning experiment: `rounds` rounds × `budget`
/// windows, averaged over `trials` trials (the paper runs 8 trials of
/// 5 rounds × 100 examples). The learners score on `pool`.
pub fn run(trials: usize, rounds: usize, budget: usize, pool: &ThreadPool) -> String {
    let mut series = Vec::new();
    for (name, mut strategy) in strategies() {
        let mut per_trial = Vec::new();
        for &seed in &trial_seeds(trials) {
            strategy.reset();
            let scenario = ecgx::EcgScenario::standard(seed);
            let classifier = ecgx::pretrained_classifier(&scenario, seed ^ 1);
            let mut learner = ScenarioLearner::new(scenario, classifier).with_runtime(pool.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD4);
            let records = run_rounds(&mut learner, strategy.as_mut(), rounds, budget, &mut rng);
            per_trial.push(records.into_iter().map(|r| r.metric).collect());
        }
        series.push(summarize_series(name, &per_trial));
    }
    let mut headers = vec!["Strategy".to_string()];
    for r in 1..=rounds {
        headers.push(format!("Round {r}"));
    }
    let mut t = Table::new(headers).with_title(format!(
        "Figure 5: ECG active learning with a single assertion, {budget} windows/round \
         (accuracy%, mean ± s.e. over {trials} trials)"
    ));
    for s in &series {
        let mut row = vec![s.label.clone()];
        for r in 0..rounds {
            row.push(format!("{:.1}±{:.1}", s.mean[r], s.stderr[r]));
        }
        t.row(row);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_three_strategies() {
        let s = super::run(1, 2, 40, &super::ThreadPool::sequential());
        assert!(s.contains("Random") && s.contains("Uncertainty") && s.contains("BAL"));
    }
}
