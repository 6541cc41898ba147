//! The TV-news consistency assertion (Table 1).
//!
//! "Given that most TV news hosts do not move much between scenes, we can
//! assert that the identity, gender, and hair color of faces that highly
//! overlap within the same scene are consistent" (§2.2). The identifier
//! is the face's position slot within a scene; identity, gender, and hair
//! color are its attributes (§4.1, Appendix A uses the scene id as the
//! identifier and the identity as an attribute).

use omg_core::consistency::{AttrValue, ConsistencyEngine, ConsistencySpec, ConsistencyWindow};
use omg_core::{FnAssertion, Severity};
use omg_sim::news::{NewsFace, NewsScene};

// BEGIN ASSERTION
/// The news consistency spec: identifier = (scene, slot); attributes =
/// identity, gender, hair color.
#[derive(Debug, Clone, Copy, Default)]
pub struct NewsSpec;

impl ConsistencySpec for NewsSpec {
    type Output = NewsFace;
    type Id = (u64, usize);

    fn id(&self, f: &NewsFace) -> (u64, usize) {
        (f.scene, f.slot)
    }

    fn attrs(&self, f: &NewsFace) -> Vec<(String, AttrValue)> {
        vec![
            ("identity".to_string(), AttrValue::Int(f.identity as i64)),
            ("gender".to_string(), AttrValue::Int(f.gender as i64)),
            ("hair".to_string(), AttrValue::Int(f.hair as i64)),
        ]
    }

    fn attr_keys(&self) -> Vec<String> {
        vec![
            "identity".to_string(),
            "gender".to_string(),
            "hair".to_string(),
        ]
    }
}

/// Counts attribute inconsistencies on an already-grouped scene window —
/// the core of `news`, shared by the reference path (which groups the
/// scene itself) and the prepared streaming path.
pub fn news_severity(window: &ConsistencyWindow<NewsFace>) -> Severity {
    let engine = ConsistencyEngine::new(NewsSpec);
    Severity::from_count(engine.check(window).len())
}

/// Builds the combined `news` assertion: the number of attribute
/// inconsistencies across all (scene, slot) groups in the scene.
pub fn news_assertion() -> FnAssertion<NewsScene> {
    FnAssertion::new("news", move |scene: &NewsScene| {
        news_severity(&scene_window(scene))
    })
}
// END ASSERTION

// BEGIN HELPER scene_window
/// Groups a scene's faces into a consistency window (one entry per sample
/// time).
pub fn scene_window(scene: &NewsScene) -> ConsistencyWindow<NewsFace> {
    let mut window = ConsistencyWindow::new();
    let mut current: Vec<NewsFace> = Vec::new();
    for face in &scene.faces {
        if let Some(first) = current.first() {
            if face.time > first.time {
                let t = first.time;
                window.push(t, std::mem::take(&mut current));
            }
        }
        current.push(face.clone());
    }
    if let Some(first) = current.first() {
        window.push(first.time, current.clone());
    }
    window
}
// END HELPER scene_window

#[cfg(test)]
mod tests {
    use super::*;
    use omg_core::Assertion;
    use omg_sim::news::{NewsConfig, NewsWorld};

    fn face(scene: u64, slot: usize, time: f64, identity: u32, gender: u8, hair: u8) -> NewsFace {
        NewsFace {
            scene,
            slot,
            time,
            identity,
            gender,
            hair,
            true_identity: identity,
        }
    }

    #[test]
    fn consistent_scene_does_not_fire() {
        let scene = NewsScene {
            scene: 0,
            start_time: 0.0,
            faces: vec![
                face(0, 0, 0.0, 3, 1, 2),
                face(0, 0, 3.0, 3, 1, 2),
                face(0, 0, 6.0, 3, 1, 2),
            ],
        };
        assert!(!news_assertion().check(&scene).fired());
    }

    #[test]
    fn identity_swap_fires() {
        let scene = NewsScene {
            scene: 0,
            start_time: 0.0,
            faces: vec![
                face(0, 0, 0.0, 3, 1, 2),
                face(0, 0, 3.0, 5, 1, 2), // transient identity swap
                face(0, 0, 6.0, 3, 1, 2),
            ],
        };
        let sev = news_assertion().check(&scene);
        assert!(sev.fired());
        assert_eq!(sev.value(), 1.0);
    }

    #[test]
    fn each_attribute_counts_separately() {
        let scene = NewsScene {
            scene: 0,
            start_time: 0.0,
            faces: vec![
                face(0, 0, 0.0, 3, 1, 2),
                face(0, 0, 3.0, 5, 0, 1), // identity, gender, and hair all flip
                face(0, 0, 6.0, 3, 1, 2),
            ],
        };
        assert_eq!(news_assertion().check(&scene).value(), 3.0);
    }

    #[test]
    fn two_hosts_are_independent_groups() {
        let scene = NewsScene {
            scene: 0,
            start_time: 0.0,
            faces: vec![
                face(0, 0, 0.0, 3, 1, 2),
                face(0, 1, 0.0, 7, 0, 0),
                face(0, 0, 3.0, 3, 1, 2),
                face(0, 1, 3.0, 7, 0, 0),
            ],
        };
        assert!(!news_assertion().check(&scene).fired());
    }

    #[test]
    fn generated_assertions_split_by_attribute() {
        // The three per-attribute assertions OMG generates from NewsSpec:
        // the granular view of the same checks.
        let engine = std::sync::Arc::new(ConsistencyEngine::new(NewsSpec));
        let assertions = engine.generate_assertions("news", scene_window);
        let names: Vec<&str> = assertions.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["news-identity", "news-gender", "news-hair"]);
        let scene = NewsScene {
            scene: 0,
            start_time: 0.0,
            faces: vec![
                face(0, 0, 0.0, 3, 1, 2),
                face(0, 0, 3.0, 3, 0, 2), // only gender flips
                face(0, 0, 6.0, 3, 1, 2),
            ],
        };
        assert!(!assertions[0].check(&scene).fired());
        assert!(assertions[1].check(&scene).fired());
        assert!(!assertions[2].check(&scene).fired());
    }

    #[test]
    fn fires_on_simulated_world_errors() {
        let world = NewsWorld::new(NewsConfig::default(), 5);
        let assertion = news_assertion();
        let mut fired = 0usize;
        for scene in world.scenes(0..200) {
            if assertion.check(&scene).fired() {
                fired += 1;
            }
        }
        assert!(fired > 10, "assertion should fire on world errors: {fired}");
    }
}
