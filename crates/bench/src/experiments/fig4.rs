//! Figures 4a/4b (and 9a/9b): active learning on night-street and the AV
//! world with random, uncertainty, uniform-MA, and BAL selection.

use omg_active::{
    run_rounds, BalStrategy, FallbackPolicy, RandomStrategy, SelectionStrategy,
    UncertaintyStrategy, UniformAssertionStrategy,
};
use omg_eval::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

use omg_core::runtime::ThreadPool;
use omg_scenario::ScenarioLearner;

use crate::experiments::trial_seeds;
use crate::{avx, summarize_series, video, SeriesSummary};

/// The four strategies of §5.4, in the paper's legend order.
fn strategies() -> Vec<(&'static str, Box<dyn SelectionStrategy>)> {
    vec![
        ("Random", Box::new(RandomStrategy)),
        ("Uncertainty", Box::new(UncertaintyStrategy)),
        ("Uniform MA", Box::new(UniformAssertionStrategy)),
        (
            "BAL",
            Box::new(BalStrategy::new(FallbackPolicy::Uncertainty)),
        ),
    ]
}

fn render(
    title: &str,
    unit: &str,
    rounds: usize,
    series: &[SeriesSummary],
    all_rounds: bool,
) -> String {
    let first_shown = if all_rounds { 1 } else { 2 };
    let mut headers = vec!["Strategy".to_string()];
    for r in first_shown..=rounds {
        headers.push(format!("Round {r}"));
    }
    let mut t = Table::new(headers).with_title(format!("{title} ({unit}, mean ± s.e.)"));
    for s in series {
        let mut row = vec![s.label.clone()];
        for r in first_shown..=rounds {
            row.push(format!("{:.1}±{:.1}", s.mean[r - 1], s.stderr[r - 1]));
        }
        t.row(row);
    }
    t.to_string()
}

/// Runs the night-street experiment: `rounds` rounds × `budget` frames,
/// averaged over `trials` trials. `all_rounds` renders rounds 1..N
/// (Figure 9a); otherwise rounds 2..N (Figure 4a, "the first round is
/// required for calibration"). The learners score on `pool`.
pub fn run_video(
    trials: usize,
    rounds: usize,
    budget: usize,
    all_rounds: bool,
    pool: &ThreadPool,
) -> String {
    let mut series = Vec::new();
    for (name, mut strategy) in strategies() {
        let mut per_trial = Vec::new();
        for &seed in &trial_seeds(trials) {
            strategy.reset();
            let scenario = video::VideoScenario::standard(seed);
            let mut learner = ScenarioLearner::new(scenario, video::pretrained_detector(seed ^ 1))
                .with_runtime(pool.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA1);
            let records = run_rounds(&mut learner, strategy.as_mut(), rounds, budget, &mut rng);
            per_trial.push(records.into_iter().map(|r| r.metric).collect());
        }
        series.push(summarize_series(name, &per_trial));
    }
    let fig = if all_rounds { "Figure 9a" } else { "Figure 4a" };
    render(
        &format!("{fig}: active learning for night-street, {budget} frames/round"),
        "mAP%",
        rounds,
        &series,
        all_rounds,
    )
}

/// Runs the AV experiment (Figure 4b / 9b), scoring on `pool`.
pub fn run_av(
    trials: usize,
    rounds: usize,
    budget: usize,
    all_rounds: bool,
    pool: &ThreadPool,
) -> String {
    let mut series = Vec::new();
    for (name, mut strategy) in strategies() {
        let mut per_trial = Vec::new();
        for &seed in &trial_seeds(trials) {
            strategy.reset();
            let scenario = avx::AvScenario::standard(seed);
            let mut learner = ScenarioLearner::new(scenario, avx::pretrained_camera(seed ^ 1))
                .with_runtime(pool.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB2);
            let records = run_rounds(&mut learner, strategy.as_mut(), rounds, budget, &mut rng);
            per_trial.push(records.into_iter().map(|r| r.metric).collect());
        }
        series.push(summarize_series(name, &per_trial));
    }
    let fig = if all_rounds { "Figure 9b" } else { "Figure 4b" };
    render(
        &format!("{fig}: active learning for the AV world, {budget} samples/round"),
        "mAP%",
        rounds,
        &series,
        all_rounds,
    )
}

/// The paper's headline label-efficiency claim: labels needed by BAL vs
/// random sampling to reach a fixed mAP target, scoring on `pool`.
pub fn label_savings(
    trials: usize,
    rounds: usize,
    budget: usize,
    target: f64,
    pool: &ThreadPool,
) -> String {
    let needed = |strategy: &mut dyn SelectionStrategy| -> Vec<f64> {
        let mut out = Vec::new();
        for &seed in &trial_seeds(trials) {
            strategy.reset();
            let scenario = video::VideoScenario::standard(seed);
            let mut learner = ScenarioLearner::new(scenario, video::pretrained_detector(seed ^ 1))
                .with_runtime(pool.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC3);
            let records = run_rounds(&mut learner, strategy, rounds, budget, &mut rng);
            let labels = records
                .iter()
                .find(|r| r.metric >= target)
                .map_or((rounds * budget) as f64, |r| (r.round * budget) as f64);
            out.push(labels);
        }
        out
    };
    let random = omg_eval::stats::mean(&needed(&mut RandomStrategy));
    let bal = omg_eval::stats::mean(&needed(&mut BalStrategy::new(FallbackPolicy::Uncertainty)));
    let saving = 100.0 * (random - bal) / random.max(1.0);
    format!(
        "Label efficiency at the {target:.0} mAP% crossover: random needs ~{random:.0} labels, BAL ~{bal:.0} \
         ({saving:.0}% fewer; paper reports 40% fewer at its 62 mAP target).\n"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn video_experiment_renders() {
        // One tiny trial keeps the test fast; the real binary uses more.
        let s = super::run_video(1, 2, 20, true, &super::ThreadPool::sequential());
        assert!(s.contains("BAL") && s.contains("Random"));
        assert!(s.contains("Round 1") && s.contains("Round 2"));
    }
}
