//! The runtime **scenario registry**: every deployed use case, behind
//! the type-erased [`DynScenario`] face, in one list that binaries,
//! benches, and the conformance suite iterate.
//!
//! Registering a scenario here is the *last* step of adding a use case
//! (see README "Adding a scenario"): once listed, it is automatically
//! covered by the registry-driven stream==batch conformance suite, the
//! prepare-once probes, and `exp_throughput --stream`'s
//! `BENCH_stream_<name>.json` archive — no edits to any of them.

use omg_scenario::{DynScenario, Scenario, ScenarioHarness};
use omg_service::{DynService, ServiceConfig, ServiceHarness};

/// Every registered scenario's name, in registry order — the cheap
/// (no worlds, no models) form of the registry that
/// `exp_throughput --check-stream-archive` and CI enforce the
/// `BENCH_stream_<name>.json` archive against. Must match
/// [`all_scenarios`]'s names exactly (a unit test pins this).
pub const SCENARIO_NAMES: [&str; 5] = ["video", "av", "ecg", "news", "highway"];

use crate::avx::AvScenario;
use crate::ecgx::EcgScenario;
use crate::highway::HighwayScenario;
use crate::newsx::NewsScenario;
use crate::video::VideoScenario;
use crate::{avx, ecgx, highway, video};

/// Scenes the AV world needs for roughly `size` samples (20 per scene).
fn av_scenes(size: usize) -> u64 {
    (size / 20).max(1) as u64
}

/// Scenes the news world monitors for a `size`-window benchmark budget
/// (scene checks are several times the per-window cost of the others).
fn news_scenes(size: usize) -> u64 {
    (size / 4).max(5) as u64
}

/// Every registered scenario at *bench/conformance* scale: worlds seeded
/// with `seed`, sized to roughly `size` stream positions each, models
/// pretrained once per process and shared (the conformance suite varies
/// the world per case, not the model — pretraining is the expensive
/// step).
pub fn all_scenarios(seed: u64, size: usize) -> Vec<Box<dyn DynScenario>> {
    let ecg = EcgScenario::new(seed, 40, size.max(8), 10);
    let ecg_model = ecgx::pretrained_classifier(&ecg, seed ^ 3);
    vec![
        ScenarioHarness::boxed(
            VideoScenario::night_street(seed, size, 1),
            video::shared_pretrained_detector().clone(),
        ),
        ScenarioHarness::boxed(
            AvScenario::new(seed, av_scenes(size), 1),
            avx::shared_pretrained_camera().clone(),
        ),
        ScenarioHarness::boxed(ecg, ecg_model),
        ScenarioHarness::boxed(NewsScenario::new(seed, news_scenes(size)), ()),
        ScenarioHarness::boxed(
            HighwayScenario::highway(seed, size, 1),
            highway::shared_pretrained_primary().clone(),
        ),
    ]
}

/// One registered scenario wrapped as a multi-tenant
/// [`omg_service::MonitorService`] at bench/conformance scale — same
/// worlds, sizes, and shared pretrained models as [`all_scenarios`], so
/// the service path is measured and conformance-tested against exactly
/// the scenarios the single-stream suite covers. `None` for an
/// unregistered name.
pub fn service_for(
    name: &str,
    seed: u64,
    size: usize,
    config: ServiceConfig,
) -> Option<Box<dyn DynService>> {
    Some(match name {
        "video" => ServiceHarness::boxed(
            VideoScenario::night_street(seed, size, 1),
            video::shared_pretrained_detector().clone(),
            config,
        ),
        "av" => ServiceHarness::boxed(
            AvScenario::new(seed, av_scenes(size), 1),
            avx::shared_pretrained_camera().clone(),
            config,
        ),
        "ecg" => {
            let ecg = EcgScenario::new(seed, 40, size.max(8), 10);
            let model = ecgx::pretrained_classifier(&ecg, seed ^ 3);
            ServiceHarness::boxed(ecg, model, config)
        }
        "news" => ServiceHarness::boxed(NewsScenario::new(seed, news_scenes(size)), (), config),
        "highway" => ServiceHarness::boxed(
            HighwayScenario::highway(seed, size, 1),
            highway::shared_pretrained_primary().clone(),
            config,
        ),
        _ => return None,
    })
}

/// Every registered scenario as a service (the [`service_for`] of each
/// [`SCENARIO_NAMES`] entry) — what the service conformance suite and
/// the `exp service` soak benchmark iterate.
pub fn all_services(seed: u64, size: usize, config: &ServiceConfig) -> Vec<Box<dyn DynService>> {
    SCENARIO_NAMES
        .into_iter()
        .map(|name| {
            service_for(name, seed, size, config.clone())
                .expect("SCENARIO_NAMES entries are registered")
        })
        .collect()
}

/// Boxes one scenario at experiment scale with the model its own
/// [`Scenario::pretrained_model`] hook builds for the trial seed.
fn standard_entry<Sc>(scenario: Sc, seed: u64) -> Box<dyn DynScenario>
where
    Sc: Scenario + Clone + 'static,
    Sc::Model: Clone,
{
    let model = scenario.pretrained_model(seed ^ 1);
    ScenarioHarness::boxed(scenario, model)
}

/// Every registered scenario at *experiment* scale: the standard sizes
/// the paper's tables/figures use, with models pretrained per trial seed
/// (`seed ^ 1`, matching the active-learning experiments) through each
/// scenario's own [`Scenario::pretrained_model`] hook.
pub fn standard_scenarios(seed: u64) -> Vec<Box<dyn DynScenario>> {
    vec![
        standard_entry(VideoScenario::standard(seed), seed),
        standard_entry(AvScenario::standard(seed), seed),
        standard_entry(EcgScenario::standard(seed), seed),
        standard_entry(NewsScenario::standard(seed), seed),
        standard_entry(HighwayScenario::standard(seed), seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_five_distinct_scenarios() {
        let scenarios = all_scenarios(3, 20);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        assert_eq!(
            names, SCENARIO_NAMES,
            "SCENARIO_NAMES must mirror the registry exactly"
        );
        for s in &scenarios {
            assert!(!s.is_empty(), "{} built an empty stream", s.name());
            assert!(
                !s.assertion_names().is_empty(),
                "{} has no assertions",
                s.name()
            );
        }
    }

    #[test]
    fn service_registry_mirrors_the_scenario_registry() {
        let services = all_services(3, 16, &ServiceConfig::default());
        let names: Vec<&str> = services.iter().map(|s| s.name()).collect();
        assert_eq!(names, SCENARIO_NAMES);
        assert!(service_for("nope", 3, 16, ServiceConfig::default()).is_none());
        for s in &services {
            assert!(s.stream_len() > 0, "{} built an empty stream", s.name());
            assert!(
                !s.assertion_names().is_empty(),
                "{} has no assertions",
                s.name()
            );
        }
    }

    #[test]
    fn only_the_news_scenario_is_monitoring_only() {
        for s in all_scenarios(5, 16) {
            let learner = s.learner(omg_scenario::ThreadPool::sequential());
            assert_eq!(
                learner.is_some(),
                s.name() != "news",
                "unexpected learner availability for {}",
                s.name()
            );
        }
    }
}
