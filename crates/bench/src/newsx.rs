//! The TV-news scenario (Tables 1-3), ported onto the generic
//! [`Scenario`] engine as its monitoring-only member.
//!
//! The paper had no training access for this domain ("We were unable to
//! access the training code for this domain", §5.1), so news contributes
//! monitoring statistics only: assertion fire counts and precision. On
//! the engine that means `trains()` is false — the registry hands out no
//! learner — while batch/stream scoring (and the flagged-group precision
//! analysis below) work like every other scenario.

use omg_core::consistency::{ConsistencyEngine, ConsistencyWindow, Violation};
use omg_core::runtime::ThreadPool;
use omg_core::stream::Prepare;
use omg_domains::news::{news_assertion, NewsSpec};
use omg_domains::news_prepared_assertion_set;
use omg_scenario::Scenario;
use omg_sim::news::{Host, NewsConfig, NewsFace, NewsScene, NewsWorld};
use rand::rngs::StdRng;

/// The fixed configuration of a news experiment.
#[derive(Debug, Clone)]
pub struct NewsScenario {
    /// The world (roster + scene generator).
    pub world: NewsWorld,
    /// The monitored scenes.
    pub scenes: Vec<NewsScene>,
}

impl NewsScenario {
    /// Builds a scenario over `n_scenes` scenes.
    pub fn new(seed: u64, n_scenes: u64) -> Self {
        let world = NewsWorld::new(NewsConfig::default(), seed);
        let scenes = world.scenes(0..n_scenes);
        Self { world, scenes }
    }

    /// Experiment-standard size (the paper's lab gave 50 hour-long
    /// segments; 400 scenes keeps the statistics stable at laptop scale).
    pub fn standard(seed: u64) -> Self {
        Self::new(seed, 400)
    }
}

/// One flagged (scene, slot) group with whether a real model error exists
/// in it — the unit of the Table 3 precision check.
#[derive(Debug, Clone, PartialEq)]
pub struct FlaggedGroup {
    /// Scene index.
    pub scene: u64,
    /// Host slot within the scene.
    pub slot: usize,
    /// Whether some face output in the group is genuinely wrong.
    pub is_real_error: bool,
}

/// Extracts the flagged (scene, slot) groups from one scene's
/// already-grouped consistency window (deduplicated per scene/slot).
fn groups_in_scene(
    engine: &ConsistencyEngine<NewsSpec>,
    scene: &NewsScene,
    window: &ConsistencyWindow<NewsFace>,
    roster: &[Host],
) -> Vec<FlaggedGroup> {
    let mut seen: Vec<(u64, usize)> = Vec::new();
    let mut out = Vec::new();
    for violation in engine.check(window) {
        let Violation::AttributeMismatch { id, .. } = violation else {
            continue;
        };
        if seen.contains(&id) {
            continue;
        }
        seen.push(id);
        let is_real_error = scene
            .faces
            .iter()
            .filter(|f| (f.scene, f.slot) == id)
            .any(|f| f.is_error(roster));
        out.push(FlaggedGroup {
            scene: id.0,
            slot: id.1,
            is_real_error,
        });
    }
    out
}

/// Runs the news assertion over all scenes and returns the flagged
/// groups (deduplicated per scene/slot). Scenes are independent, so the
/// consistency checks fan out across the runtime's workers and merge in
/// scene order. Each scene is grouped **once** via the shared
/// preparation layer; the grouping feeds both the assertion's violation
/// check and the flagged-group analysis.
pub fn flagged_groups(scenario: &NewsScenario, runtime: &ThreadPool) -> Vec<FlaggedGroup> {
    let engine = ConsistencyEngine::new(NewsSpec);
    let roster = scenario.world.roster();
    runtime
        .map_indexed(scenario.scenes.len(), |si| {
            let scene = &scenario.scenes[si];
            let window = omg_domains::NewsPrepare.prepare(scene);
            groups_in_scene(&engine, scene, &window, roster)
        })
        .into_iter()
        .flatten()
        .collect()
}

impl Scenario for NewsScenario {
    type Item = NewsScene;
    type Sample = NewsScene;
    type Prep = ConsistencyWindow<NewsFace>;
    type Model = ();
    type Labels = ();

    fn name(&self) -> &'static str {
        "news"
    }

    fn title(&self) -> &'static str {
        "TV news"
    }

    fn pool_len(&self) -> usize {
        self.scenes.len()
    }

    fn pretrained_model(&self, _seed: u64) {}

    fn run_model(&self, _model: &()) -> Vec<NewsScene> {
        // The face pipeline's outputs are baked into the simulated
        // scenes; "running the model" is reading them off.
        self.scenes.clone()
    }

    fn assertion_set(&self) -> omg_core::AssertionSet<NewsScene> {
        let mut set = omg_core::AssertionSet::new();
        set.add(news_assertion());
        set
    }

    fn prepared_set(&self) -> omg_core::AssertionSet<NewsScene, ConsistencyWindow<NewsFace>> {
        news_prepared_assertion_set()
    }

    fn preparer(&self) -> Box<dyn Prepare<NewsScene, Prepared = ConsistencyWindow<NewsFace>>> {
        Box::new(omg_domains::NewsPrepare)
    }

    fn make_sample(&self, items: &[NewsScene], center: usize) -> NewsScene {
        // PANIC: the drivers pass center < items.len() by contract.
        items[center].clone()
    }

    fn uncertainty(&self, _item: &NewsScene) -> f64 {
        // No confidence signal is exposed by the news pipeline; the
        // paper's comparison for this domain is monitoring-only.
        0.0
    }

    fn trains(&self) -> bool {
        false
    }

    fn initial_labels(&self) {}

    fn label_into(&self, _labels: &mut (), _pool_index: usize) {}

    fn train(&self, _model: &mut (), _labels: &(), _rng: &mut StdRng) {}

    fn evaluate(&self, _model: &()) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_scenario::{score_scenario, stream_score_scenario};

    /// Number of scenes on which the combined news assertion fires,
    /// checked scene by scene without the scenario engine.
    fn scenes_fired(scenario: &NewsScenario) -> usize {
        let assertion = news_assertion();
        scenario
            .scenes
            .iter()
            .filter(|s| omg_core::Assertion::check(&assertion, s).fired())
            .count()
    }

    #[test]
    fn assertion_fires_on_some_scenes() {
        let s = NewsScenario::new(3, 200);
        let fired = scenes_fired(&s);
        assert!(fired > 5, "expected transient errors to fire: {fired}");
        assert!(fired < 200, "not every scene should fire: {fired}");
    }

    #[test]
    fn flagged_groups_are_mostly_real_errors() {
        let s = NewsScenario::new(3, 300);
        let flagged = flagged_groups(&s, &ThreadPool::sequential());
        assert!(!flagged.is_empty());
        assert_eq!(
            flagged_groups(&s, &ThreadPool::new(4)),
            flagged,
            "parallel scene checks must merge in scene order"
        );
        let real = flagged.iter().filter(|g| g.is_real_error).count();
        let precision = real as f64 / flagged.len() as f64;
        assert!(
            precision > 0.95,
            "news consistency should be near-perfectly precise: {precision}"
        );
    }

    #[test]
    fn generic_scoring_matches_the_fire_count() {
        let s = NewsScenario::new(3, 150);
        let items = s.run_model(&());
        let batch_fired = scenes_fired(&s);
        let want = score_scenario(&s, &s.assertion_set(), &items, &ThreadPool::sequential());
        assert_eq!(
            want.0.iter_rows().filter(|r| r[0] > 0.0).count(),
            batch_fired,
            "generic batch severities must reproduce scenes_fired"
        );
        let prepared = s.prepared_set();
        let preparer = s.preparer();
        for threads in [1, 2, 8] {
            let got =
                stream_score_scenario(&s, &prepared, &preparer, &items, &ThreadPool::new(threads));
            assert_eq!(got, want, "news stream diverges at {threads} threads");
        }
    }

    #[test]
    fn flagged_groups_deduplicate() {
        let s = NewsScenario::new(3, 100);
        let flagged = flagged_groups(&s, &ThreadPool::sequential());
        let mut keys: Vec<(u64, usize)> = flagged.iter().map(|g| (g.scene, g.slot)).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }
}
