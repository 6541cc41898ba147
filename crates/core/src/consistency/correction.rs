use super::engine::{id_groups, interior_runs};
use super::{AttrValue, ConsistencyEngine, ConsistencySpec, ConsistencyWindow, Violation};

/// A proposed correction for a consistency violation — the raw material of
/// weak supervision (§4.2): "OMG will propose to remove, modify, or add
/// predictions."
#[derive(Debug, Clone, PartialEq)]
pub enum Correction<O, Id> {
    /// Replace a dissenting attribute with the identifier's most common
    /// value ("we simply use the most common value", §4).
    SetAttr {
        /// The identifier whose output is corrected.
        id: Id,
        /// Invocation index within the window.
        time_index: usize,
        /// Output index within that invocation.
        output_index: usize,
        /// The attribute to replace.
        key: String,
        /// The proposed (majority) value.
        value: AttrValue,
    },
    /// Remove a spurious output: the identifier appeared and disappeared
    /// within less than `T` seconds (a blip).
    Remove {
        /// The identifier being removed.
        id: Id,
        /// Invocation index within the window.
        time_index: usize,
        /// Output index within that invocation.
        output_index: usize,
    },
    /// Add a synthesized output: the identifier disappeared for less than
    /// `T` seconds (a flicker gap). The output is produced by the
    /// user-supplied `WeakLabel` function, "since it may require domain
    /// specific logic, e.g., averaging the locations of the object on
    /// nearby video frames" (§4.2).
    Add {
        /// The identifier being restored.
        id: Id,
        /// Invocation index the output is added at.
        time_index: usize,
        /// The synthesized output.
        output: O,
    },
}

impl<O, Id> Correction<O, Id> {
    /// The invocation index this correction applies to.
    pub fn time_index(&self) -> usize {
        match self {
            Correction::SetAttr { time_index, .. }
            | Correction::Remove { time_index, .. }
            | Correction::Add { time_index, .. } => *time_index,
        }
    }
}

impl<P: ConsistencySpec> ConsistencyEngine<P> {
    /// Proposes corrections for every violation in the window.
    ///
    /// * Attribute mismatches become [`Correction::SetAttr`] (majority
    ///   vote) for each dissenting output.
    /// * Interior *absent* runs shorter than `T` (flicker gaps) become
    ///   [`Correction::Add`] at each missing invocation, with the output
    ///   synthesized by `weak_label`; invocations where `weak_label`
    ///   returns `None` are skipped.
    /// * Interior *present* runs shorter than `T` (blips) become
    ///   [`Correction::Remove`] for each of the identifier's outputs in
    ///   the run.
    ///
    /// Runs touching the window boundary are not corrected — the window
    /// does not show both transitions, so the evidence is incomplete.
    pub fn corrections<W>(
        &self,
        window: &ConsistencyWindow<P::Output>,
        weak_label: W,
    ) -> Vec<Correction<P::Output, P::Id>>
    where
        W: Fn(&ConsistencyWindow<P::Output>, &P::Id, usize) -> Option<P::Output>,
    {
        let mut out = Vec::new();
        let occurrences = self.occurrences(window);

        // 1. Attribute corrections from the attribute violations.
        let mut violations = Vec::new();
        self.check_attributes(window, &occurrences, &mut violations);
        for violation in violations {
            if let Violation::AttributeMismatch {
                id,
                key,
                majority,
                dissenting,
            } = violation
            {
                for (time_index, output_index) in dissenting {
                    out.push(Correction::SetAttr {
                        id: id.clone(),
                        time_index,
                        output_index,
                        key: key.clone(),
                        value: majority.clone(),
                    });
                }
            }
        }

        // 2. Temporal corrections from presence-run analysis.
        let Some(t_thresh) = self.temporal_threshold() else {
            return out;
        };
        for (id, positions) in id_groups(&occurrences) {
            interior_runs(window.len(), positions, |start, end, present| {
                // Transition into the run happens at `start`, out of it at
                // `end + 1`; the run's duration is the time between them.
                let duration = window.time(end + 1) - window.time(start);
                if duration >= t_thresh {
                    return;
                }
                if present {
                    // A blip: remove this id's outputs in the run.
                    for &(_, ti, oi) in positions {
                        if ti >= start && ti <= end {
                            out.push(Correction::Remove {
                                id: id.clone(),
                                time_index: ti,
                                output_index: oi,
                            });
                        }
                    }
                } else {
                    // A flicker gap: add synthesized outputs.
                    for ti in start..=end {
                        if let Some(output) = weak_label(window, id, ti) {
                            out.push(Correction::Add {
                                id: id.clone(),
                                time_index: ti,
                                output,
                            });
                        }
                    }
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn no_weak_label(_: &ConsistencyWindow<Out>, _: &u32, _: usize) -> Option<Out> {
        None
    }

    #[test]
    fn interior_runs_basic() {
        // Runs of the presence pattern whose present invocations are the
        // first components of `positions`, in a window of `n`.
        let runs = |n: usize, positions: &[(usize, usize)]| {
            let positions: Vec<(u32, usize, usize)> =
                positions.iter().map(|&(ti, oi)| (7, ti, oi)).collect();
            let mut runs = Vec::new();
            interior_runs(n, &positions, |s, e, p| runs.push((s, e, p)));
            runs
        };
        // [present, absent, present]
        assert_eq!(runs(3, &[(0, 0), (2, 0)]), vec![(1, 1, false)]);
        // [P, A, A, P, P]: the final present run touches the edge.
        assert_eq!(runs(5, &[(0, 0), (3, 0), (4, 0)]), vec![(1, 2, false)]);
        // [A, P, P, A] with two outputs at one invocation: one blip.
        assert_eq!(runs(4, &[(1, 0), (1, 1), (2, 0)]), vec![(1, 2, true)]);
        // [P, A, P, A, P]
        assert_eq!(
            runs(5, &[(0, 0), (2, 0), (4, 0)]),
            vec![(1, 1, false), (2, 2, true), (3, 3, false)]
        );
        assert!(runs(2, &[(0, 0), (1, 0)]).is_empty());
        assert!(runs(0, &[]).is_empty());
        assert!(runs(3, &[]).is_empty());
    }

    #[test]
    fn majority_vote_correction() {
        let engine = ConsistencyEngine::new(Spec);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 2)]),
            (1.0, vec![o(1, 2)]),
            (2.0, vec![o(1, 7)]),
        ]);
        let c = engine.corrections(&w, no_weak_label);
        assert_eq!(c.len(), 1);
        match &c[0] {
            Correction::SetAttr {
                id,
                time_index,
                output_index,
                key,
                value,
            } => {
                assert_eq!(*id, 1);
                assert_eq!(*time_index, 2);
                assert_eq!(*output_index, 0);
                assert_eq!(key, "class");
                assert_eq!(*value, AttrValue::class(2));
            }
            other => panic!("unexpected correction {other:?}"),
        }
    }

    #[test]
    fn flicker_gap_produces_adds_via_weak_label() {
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (1.0, vec![]),
            (2.0, vec![o(1, 0)]),
        ]);
        let c = engine.corrections(&w, |_w, id, ti| {
            Some(Out {
                id: *id,
                class: 100 + ti,
            })
        });
        assert_eq!(c.len(), 1);
        match &c[0] {
            Correction::Add {
                id,
                time_index,
                output,
            } => {
                assert_eq!(*id, 1);
                assert_eq!(*time_index, 1);
                assert_eq!(output.class, 101);
            }
            other => panic!("unexpected correction {other:?}"),
        }
    }

    #[test]
    fn weak_label_none_skips_add() {
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (1.0, vec![]),
            (2.0, vec![o(1, 0)]),
        ]);
        let c = engine.corrections(&w, no_weak_label);
        assert!(c.is_empty());
    }

    #[test]
    fn blip_produces_remove() {
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w =
            ConsistencyWindow::from_pairs(vec![(0.0, vec![]), (1.0, vec![o(9, 3)]), (2.0, vec![])]);
        let c = engine.corrections(&w, no_weak_label);
        assert_eq!(c.len(), 1);
        match &c[0] {
            Correction::Remove {
                id,
                time_index,
                output_index,
            } => {
                assert_eq!(*id, 9);
                assert_eq!(*time_index, 1);
                assert_eq!(*output_index, 0);
            }
            other => panic!("unexpected correction {other:?}"),
        }
    }

    #[test]
    fn long_gaps_are_not_corrected() {
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (10.0, vec![]),
            (20.0, vec![o(1, 0)]),
        ]);
        let c = engine.corrections(&w, |_w, id, _ti| Some(o(*id, 0)));
        assert!(c.is_empty(), "10 s gap with T = 5 s is legal: {c:?}");
    }

    #[test]
    fn boundary_runs_are_left_alone() {
        // The object disappears at the end of the window: no second
        // transition, so no correction.
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w =
            ConsistencyWindow::from_pairs(vec![(0.0, vec![o(1, 0)]), (1.0, vec![]), (2.0, vec![])]);
        let c = engine.corrections(&w, |_w, id, _ti| Some(o(*id, 0)));
        assert!(c.is_empty());
    }

    #[test]
    fn combined_attribute_and_temporal_corrections() {
        let engine = ConsistencyEngine::new(Spec).with_temporal_threshold(5.0);
        let w = ConsistencyWindow::from_pairs(vec![
            (0.0, vec![o(1, 0)]),
            (1.0, vec![o(1, 4)]),          // class dissent
            (2.0, vec![o(1, 0), o(9, 1)]), // 9 blips in
            (3.0, vec![o(1, 0)]),
        ]);
        let c = engine.corrections(&w, no_weak_label);
        let set_attrs = c
            .iter()
            .filter(|c| matches!(c, Correction::SetAttr { .. }))
            .count();
        let removes = c
            .iter()
            .filter(|c| matches!(c, Correction::Remove { .. }))
            .count();
        assert_eq!(set_attrs, 1);
        assert_eq!(removes, 1);
    }

    #[test]
    fn time_index_accessor() {
        let c: Correction<Out, u32> = Correction::Remove {
            id: 1,
            time_index: 4,
            output_index: 0,
        };
        assert_eq!(c.time_index(), 4);
    }
}
