use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{Assertion, Severity};

use super::{AttrValue, ConsistencySpec, ConsistencyWindow};

/// A consistency violation found in a window.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation<Id> {
    /// Outputs sharing `id` disagree on attribute `key`.
    AttributeMismatch {
        /// The identifier whose outputs disagree.
        id: Id,
        /// The attribute key in question.
        key: String,
        /// The most common value (the correction rule's proposal).
        majority: AttrValue,
        /// `(time_index, output_index)` positions whose value differs from
        /// the majority.
        dissenting: Vec<(usize, usize)>,
    },
    /// An identifier made two presence transitions less than `T` seconds
    /// apart — it appeared/disappeared too quickly (flicker or blip).
    TemporalTransition {
        /// The identifier that flickered.
        id: Id,
        /// Time of the first transition, seconds.
        first: f64,
        /// Time of the second transition, seconds.
        second: f64,
        /// `true` if the identifier was *absent* between the transitions
        /// (it disappeared and re-appeared: a flicker gap); `false` if it
        /// was present (it blipped into existence: a spurious appearance).
        gap: bool,
    },
}

impl<Id> Violation<Id> {
    /// The attribute key, for attribute violations.
    pub fn key(&self) -> Option<&str> {
        match self {
            Violation::AttributeMismatch { key, .. } => Some(key),
            Violation::TemporalTransition { .. } => None,
        }
    }

    /// Whether this is a temporal violation.
    pub fn is_temporal(&self) -> bool {
        matches!(self, Violation::TemporalTransition { .. })
    }
}

/// The engine behind `AddConsistencyAssertion(Id, Attrs, T)`.
///
/// Wraps a [`ConsistencySpec`] and (optionally) a temporal threshold `T`
/// in seconds; checks windows for violations, generates one Boolean
/// assertion per attribute key plus a temporal assertion, and proposes
/// corrections (see [`ConsistencyEngine::corrections`]).
///
/// See the [module docs](super) for a worked example.
#[derive(Debug, Clone)]
pub struct ConsistencyEngine<P> {
    spec: P,
    temporal_threshold: Option<f64>,
}

impl<P: ConsistencySpec> ConsistencyEngine<P> {
    /// Creates an engine with no temporal constraint.
    pub fn new(spec: P) -> Self {
        Self {
            spec,
            temporal_threshold: None,
        }
    }

    /// Sets the temporal threshold `T` in seconds: each identifier must
    /// not make more than one presence transition within any `T`-second
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not positive and finite.
    pub fn with_temporal_threshold(mut self, t: f64) -> Self {
        assert!(
            t.is_finite() && t > 0.0,
            "temporal threshold must be positive"
        );
        self.temporal_threshold = Some(t);
        self
    }

    /// The wrapped spec.
    pub fn spec(&self) -> &P {
        &self.spec
    }

    /// The configured temporal threshold, if any.
    pub fn temporal_threshold(&self) -> Option<f64> {
        self.temporal_threshold
    }

    /// Every output of the window as `(id, time_index, output_index)`,
    /// grouped by identifier: ascending ids, and each id's positions in
    /// window order. The positions are collected in window order and
    /// sorted stably on the id alone, so [`id_groups`] yields the runs a
    /// map from id to position list would iterate, in the same order.
    pub(super) fn occurrences(
        &self,
        window: &ConsistencyWindow<P::Output>,
    ) -> Vec<(P::Id, usize, usize)> {
        let mut occ = Vec::with_capacity(window.total_outputs());
        for (ti, (_, outputs)) in window.iter().enumerate() {
            occ.extend(
                outputs
                    .iter()
                    .enumerate()
                    .map(|(oi, out)| (self.spec.id(out), ti, oi)),
            );
        }
        occ.sort_by(|a, b| a.0.cmp(&b.0));
        occ
    }

    /// Checks the window and returns all violations: attribute
    /// mismatches first, then temporal transitions.
    pub fn check(&self, window: &ConsistencyWindow<P::Output>) -> Vec<Violation<P::Id>> {
        let mut violations = Vec::new();
        let occurrences = self.occurrences(window);
        self.check_attributes(window, &occurrences, &mut violations);
        if let Some(t) = self.temporal_threshold {
            Self::check_temporal(window, &occurrences, t, &mut violations);
        }
        violations
    }

    /// The window's overall severity: the number of violations
    /// (a count-valued score as recommended in §2.1).
    pub fn severity(&self, window: &ConsistencyWindow<P::Output>) -> Severity {
        Severity::from_count(self.check(window).len())
    }

    /// Pushes an attribute mismatch for every identifier and key whose
    /// outputs disagree, in id order, then key order.
    pub(super) fn check_attributes(
        &self,
        window: &ConsistencyWindow<P::Output>,
        occurrences: &[(P::Id, usize, usize)],
        violations: &mut Vec<Violation<P::Id>>,
    ) {
        // key -> [(position, value)] in time order.
        type PerKey = BTreeMap<String, Vec<((usize, usize), AttrValue)>>;
        for (id, group) in id_groups(occurrences) {
            let mut per_key: PerKey = BTreeMap::new();
            for &(_, ti, oi) in group {
                // PANIC: occurrences was built by enumerating this same
                // window, so (ti, oi) addresses an existing output.
                let out = &window.outputs_at(ti)[oi];
                for (key, value) in self.spec.attrs(out) {
                    per_key.entry(key).or_default().push(((ti, oi), value));
                }
            }
            for (key, entries) in per_key {
                let mut counts: BTreeMap<&AttrValue, usize> = BTreeMap::new();
                for (_, v) in &entries {
                    *counts.entry(v).or_insert(0) += 1;
                }
                if counts.len() <= 1 {
                    continue;
                }
                // PANIC: counts.len() > 1 was checked just above.
                let majority = counts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .map(|(&v, _)| v.clone())
                    .expect("non-empty counts");
                let dissenting: Vec<(usize, usize)> = entries
                    .iter()
                    .filter(|(_, v)| *v != majority)
                    .map(|(pos, _)| *pos)
                    .collect();
                violations.push(Violation::AttributeMismatch {
                    id: id.clone(),
                    key,
                    majority,
                    dissenting,
                });
            }
        }
    }

    /// Pushes a temporal violation for every interior presence run of
    /// each identifier shorter than `t_thresh`. Two consecutive
    /// transitions always bound a maximal constant run, so "two
    /// transitions within T" is equivalent to "an interior run shorter
    /// than T"; the run's state tells flicker gaps (absent) apart from
    /// spurious blips (present).
    fn check_temporal(
        window: &ConsistencyWindow<P::Output>,
        occurrences: &[(P::Id, usize, usize)],
        t_thresh: f64,
        violations: &mut Vec<Violation<P::Id>>,
    ) {
        for (id, group) in id_groups(occurrences) {
            interior_runs(window.len(), group, |start, end, present| {
                let (first, second) = (window.time(start), window.time(end + 1));
                if second - first < t_thresh {
                    violations.push(Violation::TemporalTransition {
                        id: id.clone(),
                        first,
                        second,
                        gap: !present,
                    });
                }
            });
        }
    }
}

/// Splits id-sorted occurrences into one run per identifier, in id
/// order, each with its id.
pub(super) fn id_groups<Id: PartialEq>(
    occurrences: &[(Id, usize, usize)],
) -> impl Iterator<Item = (&Id, &[(Id, usize, usize)])> {
    occurrences
        .chunk_by(|a, b| a.0 == b.0)
        .filter_map(|group| group.first().map(|(id, ..)| (id, group)))
}

/// Calls `f(start, end, present)`, in position order, for every maximal
/// run `[start, end]` of one identifier's presence across a window of
/// `n` invocations that touches neither edge (so both transitions that
/// bound it are inside the window): `present` runs where it was
/// observed, absent runs where it was not. `positions` are its
/// `(id, time_index, output_index)` occurrences in time order, possibly
/// several per invocation.
pub(super) fn interior_runs<Id>(
    n: usize,
    positions: &[(Id, usize, usize)],
    mut f: impl FnMut(usize, usize, bool),
) {
    // The present run being extended, as `(start, end)`.
    let mut present: Option<(usize, usize)> = None;
    for &(_, ti, _) in positions {
        present = match present {
            None => Some((ti, ti)),
            Some((a, b)) if ti <= b + 1 => Some((a, ti)),
            Some((a, b)) => {
                // `ti > b + 1`: the present run `[a, b]` ends before the
                // absent run `[b + 1, ti - 1]`, both short of the end.
                if a > 0 {
                    f(a, b, true);
                }
                f(b + 1, ti - 1, false);
                Some((ti, ti))
            }
        };
    }
    if let Some((a, b)) = present {
        if a > 0 && b + 1 < n {
            f(a, b, true);
        }
    }
}

impl<P> ConsistencyEngine<P>
where
    P: ConsistencySpec + 'static,
{
    /// Generates the Boolean assertions this spec implies: one per
    /// attribute key (named `{prefix}-{key}`) plus, if a temporal
    /// threshold is set, one temporal assertion (named
    /// `{prefix}-temporal`).
    ///
    /// `extract` adapts the domain's sample type `S` into a window of this
    /// spec's outputs; it is cloned into each generated assertion. The
    /// returned assertions can be registered on any
    /// [`AssertionSet`](crate::AssertionSet)/[`Monitor`](crate::Monitor)
    /// exactly like hand-written ones — "these assertions are treated the
    /// same as user-provided ones in the rest of the system" (§4.2).
    pub fn generate_assertions<S, F>(
        self: &Arc<Self>,
        prefix: &str,
        extract: F,
    ) -> Vec<Box<dyn Assertion<S>>>
    where
        F: Fn(&S) -> ConsistencyWindow<P::Output> + Clone + Send + Sync + 'static,
    {
        struct GeneratedAssertion<P, F> {
            name: String,
            engine: Arc<ConsistencyEngine<P>>,
            extract: F,
            /// `Some(key)` counts attribute violations for that key;
            /// `None` counts temporal violations.
            key: Option<String>,
        }

        impl<S, P, F> Assertion<S> for GeneratedAssertion<P, F>
        where
            P: ConsistencySpec + 'static,
            F: Fn(&S) -> ConsistencyWindow<P::Output> + Send + Sync,
        {
            fn name(&self) -> &str {
                &self.name
            }

            fn check(&self, sample: &S) -> Severity {
                let window = (self.extract)(sample);
                let violations = self.engine.check(&window);
                let count = match &self.key {
                    Some(key) => violations
                        .iter()
                        .filter(|v| v.key() == Some(key.as_str()))
                        .count(),
                    None => violations.iter().filter(|v| v.is_temporal()).count(),
                };
                Severity::from_count(count)
            }
        }

        let mut out: Vec<Box<dyn Assertion<S>>> = Vec::new();
        for key in self.spec.attr_keys() {
            out.push(Box::new(GeneratedAssertion {
                name: format!("{prefix}-{key}"),
                engine: Arc::clone(self),
                extract: extract.clone(),
                key: Some(key),
            }));
        }
        if self.temporal_threshold.is_some() {
            out.push(Box::new(GeneratedAssertion {
                name: format!("{prefix}-temporal"),
                engine: Arc::clone(self),
                extract,
                key: None,
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AssertionSet;

    /// Test output: (identifier, class attribute).
    #[derive(Debug, Clone, PartialEq)]
    struct Out {
        id: u32,
        class: usize,
    }

    struct Spec;

    impl ConsistencySpec for Spec {
        type Output = Out;
        type Id = u32;

        fn id(&self, o: &Out) -> u32 {
            o.id
        }

        fn attrs(&self, o: &Out) -> Vec<(String, AttrValue)> {
            vec![("class".to_string(), AttrValue::class(o.class))]
        }

        fn attr_keys(&self) -> Vec<String> {
            vec!["class".to_string()]
        }
    }

    fn o(id: u32, class: usize) -> Out {
        Out { id, class }
    }

    #[test]
    fn consistent_window_has_no_violations() {
        let engine = ConsistencyEngine::new(Spec);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (1.0, vec![o(1, 0)]),
            (2.0, vec![o(1, 0)]),
        ]);
        assert!(engine.check(&w).is_empty());
        assert!(!engine.severity(&w).fired());
    }

    #[test]
    fn attribute_mismatch_detected_with_majority() {
        let engine = ConsistencyEngine::new(Spec);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 2)]),
            (1.0, vec![o(1, 2)]),
            (2.0, vec![o(1, 5)]), // dissent
        ]);
        let v = engine.check(&w);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::AttributeMismatch {
                id,
                key,
                majority,
                dissenting,
            } => {
                assert_eq!(*id, 1);
                assert_eq!(key, "class");
                assert_eq!(*majority, AttrValue::class(2));
                assert_eq!(dissenting, &vec![(2, 0)]);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn separate_ids_do_not_interfere() {
        let engine = ConsistencyEngine::new(Spec);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0), o(2, 3)]),
            (1.0, vec![o(1, 0), o(2, 3)]),
        ]);
        assert!(engine.check(&w).is_empty());
    }

    #[test]
    fn flicker_within_threshold_fires_temporal() {
        // Present at t=0, absent at t=1, present at t=2: two transitions
        // 1 s apart; with T = 5 s that's a violation.
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (1.0, vec![]),
            (2.0, vec![o(1, 0)]),
        ]);
        let v = engine.check(&w);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::TemporalTransition {
                id,
                first,
                second,
                gap,
            } => {
                assert_eq!(*id, 1);
                assert_eq!(*first, 1.0);
                assert_eq!(*second, 2.0);
                assert!(*gap, "disappear-reappear is a gap-type violation");
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn slow_transitions_are_legal() {
        // Disappears for 10 s with T = 5 s: transitions are 10 s apart, OK.
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (5.0, vec![]),
            (15.0, vec![o(1, 0)]),
        ]);
        assert!(engine.check(&w).is_empty());
    }

    #[test]
    fn appearing_once_is_legal() {
        // A single appearance transition: "an identifier appearing is
        // valid" (§4.2).
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![]),
            (1.0, vec![o(1, 0)]),
            (2.0, vec![o(1, 0)]),
        ]);
        assert!(engine.check(&w).is_empty());
    }

    #[test]
    fn blip_is_a_violation() {
        // Absent, present for one invocation, absent: appear+disappear
        // within T.
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w =
            ConsistencyWindow::from_pairs(vec![(0.0, vec![]), (1.0, vec![o(9, 0)]), (2.0, vec![])]);
        let v = engine.check(&w);
        assert_eq!(v.len(), 1);
        assert!(v[0].is_temporal());
        assert!(matches!(
            v[0],
            Violation::TemporalTransition { gap: false, .. }
        ));
    }

    #[test]
    fn no_temporal_check_without_threshold() {
        let engine = ConsistencyEngine::new(Spec);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (1.0, vec![]),
            (2.0, vec![o(1, 0)]),
        ]);
        assert!(engine.check(&w).is_empty());
        assert_eq!(engine.temporal_threshold(), None);
    }

    #[test]
    fn ecg_style_oscillation() {
        // The paper's ECG assertion: classification flips A -> B -> A in
        // under 30 s. Identifier = predicted class, no attributes.
        struct EcgSpec;
        impl ConsistencySpec for EcgSpec {
            type Output = usize; // predicted rhythm class for one window
            type Id = usize;
            fn id(&self, o: &usize) -> usize {
                *o
            }
            fn attrs(&self, _o: &usize) -> Vec<(String, AttrValue)> {
                vec![]
            }
            fn attr_keys(&self) -> Vec<String> {
                vec![]
            }
        }
        let engine = ConsistencyEngine::new(EcgSpec).with_temporal_threshold(30.0);
        // Class 0 for 10 s, class 1 for 10 s, class 0 again: class 1's
        // presence blips for 10 s < 30 s, and class 0 disappears for 10 s.
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![0usize]),
            (10.0, vec![1usize]),
            (20.0, vec![0usize]),
        ]);
        let v = engine.check(&w);
        assert_eq!(v.len(), 2, "both class presences flicker: {v:?}");
        // A stable rhythm raises nothing.
        let stable = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![0usize]),
            (10.0, vec![0usize]),
            (20.0, vec![0usize]),
        ]);
        assert!(engine.check(&stable).is_empty());
    }

    #[test]
    fn generated_assertions_register_and_fire() {
        let engine = Arc::new(ConsistencyEngine::new(Spec).with_temporal_threshold(5.0));
        // Sample type: the window itself.
        let assertions =
            engine.generate_assertions("video", |w: &ConsistencyWindow<Out>| w.clone());
        assert_eq!(assertions.len(), 2);
        let mut set: AssertionSet<ConsistencyWindow<Out>> = AssertionSet::new();
        for a in assertions {
            set.add_boxed(a);
        }
        assert_eq!(set.names(), vec!["video-class", "video-temporal"]);

        // Attribute violation only.
        let w = ConsistencyWindow::from_pairs(vec![(0.0, vec![o(1, 0)]), (1.0, vec![o(1, 1)])]);
        let outcomes = set.check_all(&w);
        assert!(outcomes[0].1.fired());
        assert!(!outcomes[1].1.fired());

        // Temporal violation only.
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (1.0, vec![]),
            (2.0, vec![o(1, 0)]),
        ]);
        let outcomes = set.check_all(&w);
        assert!(!outcomes[0].1.fired());
        assert!(outcomes[1].1.fired());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        ConsistencyEngine::new(Spec).with_temporal_threshold(0.0);
    }
}
