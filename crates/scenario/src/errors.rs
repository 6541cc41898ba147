use omg_core::AssertionSet;

use crate::{clamped_window, Scenario};

/// A model error with the confidence the paper's Figure 3 analysis
/// attributes to it, located by stream position and source identity.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundError {
    /// Confidence attributed to the error.
    pub confidence: f64,
    /// Stream position (pool frame/sample index) where it was found.
    pub frame: usize,
    /// Identity of the erroneous track or cluster within the frame.
    /// `(frame, source)` is the error's dedup key across overlapping
    /// windows: two *distinct* errors in one frame stay distinct even
    /// when they happen to share a confidence.
    pub source: u64,
}

/// Sorts errors into (frame, source) order and drops re-findings of the
/// same error from overlapping windows. Identity — not confidence — is
/// the key: two distinct errors in one frame that happen to share a
/// confidence both survive.
pub fn dedup_errors(errs: &mut Vec<FoundError>) {
    errs.sort_by(|a, b| a.frame.cmp(&b.frame).then(a.source.cmp(&b.source)));
    errs.dedup_by(|a, b| a.frame == b.frame && a.source == b.source);
}

/// Collects, per assertion name, the *true* model errors found in
/// flagged windows — generic over the scenario's
/// [`Scenario::item_errors`] attribution hook. Every window that fires
/// an assertion contributes that assertion's errors at its center;
/// re-findings from overlapping windows are deduplicated by
/// (frame, source) identity.
pub fn errors_by_assertion<Sc: Scenario>(
    scenario: &Sc,
    set: &AssertionSet<Sc::Sample>,
    items: &[Sc::Item],
) -> Vec<(String, Vec<FoundError>)> {
    let mut out: Vec<(String, Vec<FoundError>)> = set
        .names()
        .iter()
        .map(|n| (n.to_string(), Vec::new()))
        .collect();
    let half = scenario.window_half();
    for center in 0..items.len() {
        let (window, at) = clamped_window(items, center, half);
        let sample = scenario.make_sample(window, at);
        for (aid, severity) in set.check_all(&sample) {
            if !severity.fired() {
                continue;
            }
            // PANIC: aid comes from the set whose names built `out`
            // slot for slot.
            out[aid.0]
                .1
                .extend(scenario.item_errors(set.name(aid), items, center));
        }
    }
    for (_, errs) in &mut out {
        dedup_errors(errs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{ToyModel, ToyScenario};

    #[test]
    fn equal_confidence_distinct_errors_survive_dedup() {
        // Regression (inherited from the video port): dedup used to key
        // on (frame, confidence), merging two distinct same-frame errors
        // that tie on confidence.
        let mut errs = vec![
            FoundError {
                confidence: 0.8,
                frame: 4,
                source: 11,
            },
            FoundError {
                confidence: 0.8,
                frame: 4,
                source: 22,
            },
            // Re-found by the next window.
            FoundError {
                confidence: 0.8,
                frame: 4,
                source: 11,
            },
            FoundError {
                confidence: 0.5,
                frame: 2,
                source: 11,
            },
        ];
        dedup_errors(&mut errs);
        assert_eq!(
            errs,
            vec![
                FoundError {
                    confidence: 0.5,
                    frame: 2,
                    source: 11
                },
                FoundError {
                    confidence: 0.8,
                    frame: 4,
                    source: 11
                },
                FoundError {
                    confidence: 0.8,
                    frame: 4,
                    source: 22
                },
            ]
        );
    }

    #[test]
    fn errors_are_attributed_per_assertion_and_deduplicated() {
        let sc = ToyScenario::new(24);
        let items = sc.run_model(&ToyModel::default());
        let set = sc.assertion_set();
        let by_assertion = errors_by_assertion(&sc, &set, &items);
        assert_eq!(by_assertion.len(), set.len());
        let names: Vec<&str> = by_assertion.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, set.names());
        // The toy attributes one error per fired center of the second
        // assertion; overlapping windows must not duplicate them.
        let (_, errs) = &by_assertion[1];
        assert!(!errs.is_empty(), "the toy's large-center assertion fires");
        let mut keys: Vec<(usize, u64)> = errs.iter().map(|e| (e.frame, e.source)).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before, "errors deduplicate by identity");
    }
}
