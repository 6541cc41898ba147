//! The ECG assertion (medical classification, Table 1).
//!
//! "The European Society of Cardiology guidelines for detecting AF
//! require at least 30 seconds of signal before calling a detection.
//! Thus, predictions should not rapidly switch between two states"
//! (§2.2). Expressed through the consistency API with the *predicted
//! class as the identifier* and `T = 30 s` (§4.1): any class whose
//! presence in the prediction stream transitions twice within 30 seconds
//! — the `A → B → A` pattern — fires the assertion.

use omg_core::consistency::{AttrValue, ConsistencyEngine, ConsistencySpec, ConsistencyWindow};
use omg_core::{FnAssertion, Severity};

use crate::EcgWindow;

/// The guideline persistence threshold, seconds.
const ECG_T_SECS: f64 = 30.0;

// BEGIN ASSERTION
/// The ECG consistency spec: identifier = predicted rhythm class, no
/// attributes (§4.1: "We used the detected class as our identifier and
/// set T to 30 seconds").
#[derive(Debug, Clone, Copy, Default)]
pub struct EcgSpec;

impl ConsistencySpec for EcgSpec {
    type Output = usize;
    type Id = usize;

    fn id(&self, pred: &usize) -> usize {
        *pred
    }

    fn attrs(&self, _pred: &usize) -> Vec<(String, AttrValue)> {
        vec![]
    }

    fn attr_keys(&self) -> Vec<String> {
        vec![]
    }
}

/// Segments an ECG prediction window into the consistency window the
/// assertion runs over — the expensive per-window derivation the
/// streaming engine prepares once and shares.
pub fn ecg_segments(window: &EcgWindow) -> ConsistencyWindow<usize> {
    let mut cw = ConsistencyWindow::new();
    for (&t, &p) in window.times.iter().zip(&window.preds) {
        cw.push(t, vec![p]);
    }
    cw
}

/// Counts the consistency violations on already-segmented predictions —
/// the core of the ECG assertion, shared by the reference and prepared
/// paths.
pub fn ecg_severity(segments: &ConsistencyWindow<usize>) -> Severity {
    let engine = ConsistencyEngine::new(EcgSpec).with_temporal_threshold(ECG_T_SECS);
    Severity::from_count(engine.check(segments).len())
}

/// Builds the ECG assertion.
pub fn ecg_assertion() -> FnAssertion<EcgWindow> {
    FnAssertion::new("ecg", move |window: &EcgWindow| {
        ecg_severity(&ecg_segments(window))
    })
}
// END ASSERTION

#[cfg(test)]
mod tests {
    use super::*;
    use omg_core::Assertion;

    fn window(preds: &[usize], stride: f64) -> EcgWindow {
        let times: Vec<f64> = (0..preds.len()).map(|i| i as f64 * stride).collect();
        EcgWindow::new(times, preds.to_vec(), preds.len() / 2)
    }

    #[test]
    fn stable_rhythm_does_not_fire() {
        let a = ecg_assertion();
        assert!(!a.check(&window(&[0, 0, 0, 0, 0], 10.0)).fired());
    }

    #[test]
    fn fast_oscillation_fires() {
        // A -> B -> A with 10 s per window: B persists 10 s < 30 s.
        let a = ecg_assertion();
        let sev = a.check(&window(&[0, 0, 1, 0, 0], 10.0));
        assert!(sev.fired());
    }

    #[test]
    fn slow_transition_is_legal() {
        // A for 40 s, then B for 40 s: each class transitions once.
        let a = ecg_assertion();
        assert!(!a.check(&window(&[0, 0, 0, 0, 1, 1, 1, 1], 10.0)).fired());
    }

    #[test]
    fn persistent_af_is_legal() {
        // AF appearing and staying for >= 30 s is a legitimate call.
        let a = ecg_assertion();
        assert!(!a.check(&window(&[0, 0, 1, 1, 1, 1, 1], 10.0)).fired());
    }

    #[test]
    fn b_run_of_exactly_30s_is_legal() {
        // B present for 3 windows of 10 s: transitions 30 s apart, not
        // *within* 30 s.
        let a = ecg_assertion();
        assert!(!a.check(&window(&[0, 1, 1, 1, 0], 10.0)).fired());
    }

    #[test]
    fn multiple_oscillations_accumulate() {
        let a = ecg_assertion();
        let sev = a.check(&window(&[0, 1, 0, 1, 0], 10.0));
        assert!(sev.value() >= 2.0, "severity {sev}");
    }
}
