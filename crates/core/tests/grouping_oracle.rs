//! The id-sorted occurrence grouping against the `BTreeMap` grouping it
//! replaced.
//!
//! `ConsistencyEngine` groups a window's outputs by identifier with a
//! stable sort of `(id, time_index, output_index)` on the id alone.
//! The functions below are the earlier engine, which grouped through a
//! `BTreeMap<Id, Vec<(time_index, output_index)>>`, kept as the one
//! oracle. The prepared scoring path and its self-contained reference
//! both group through the engine, so the bit-for-bit suites cannot see a
//! grouping-order change; this property is the check that can. It
//! requires `check` (temporal entries included) and `corrections` to
//! return the oracle's lists, order included.

use std::collections::BTreeMap;

use omg_core::consistency::{
    AttrValue, ConsistencyEngine, ConsistencySpec, ConsistencyWindow, Correction, Violation,
};
use proptest::prelude::*;

/// Sparse identifiers, far apart and listed out of order, up to
/// `u64::MAX`.
const IDS: [u64; 8] = [u64::MAX, 3, 1 << 40, 0, 17, 65_536, 999, u64::MAX - 1];

#[derive(Debug, Clone, PartialEq)]
struct Out {
    id: u64,
    class: usize,
    color: usize,
}

struct Spec;

impl ConsistencySpec for Spec {
    type Output = Out;
    type Id = u64;

    fn id(&self, o: &Out) -> u64 {
        o.id
    }

    fn attrs(&self, o: &Out) -> Vec<(String, AttrValue)> {
        vec![
            (
                "color".to_string(),
                AttrValue::text(["red", "blue"][o.color]),
            ),
            ("class".to_string(), AttrValue::class(o.class)),
        ]
    }

    fn attr_keys(&self) -> Vec<String> {
        vec!["class".to_string(), "color".to_string()]
    }
}

type Occurrences = BTreeMap<u64, Vec<(usize, usize)>>;

/// The earlier `ConsistencyEngine::occurrences`.
fn oracle_occurrences(w: &ConsistencyWindow<Out>) -> Occurrences {
    let mut occ: Occurrences = BTreeMap::new();
    for ti in 0..w.len() {
        for (oi, out) in w.outputs_at(ti).iter().enumerate() {
            occ.entry(Spec.id(out)).or_default().push((ti, oi));
        }
    }
    occ
}

/// The earlier attribute pass.
fn oracle_attributes(w: &ConsistencyWindow<Out>, occ: &Occurrences) -> Vec<Violation<u64>> {
    type PerKey = BTreeMap<String, Vec<((usize, usize), AttrValue)>>;
    let mut violations = Vec::new();
    for (id, positions) in occ {
        let mut per_key: PerKey = BTreeMap::new();
        for &(ti, oi) in positions {
            for (key, value) in Spec.attrs(&w.outputs_at(ti)[oi]) {
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
            let majority = counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(&v, _)| v.clone())
                .unwrap();
            let dissenting = entries
                .iter()
                .filter(|(_, v)| *v != majority)
                .map(|(pos, _)| *pos)
                .collect();
            violations.push(Violation::AttributeMismatch {
                id: *id,
                key,
                majority,
                dissenting,
            });
        }
    }
    violations
}

/// The earlier `interior_runs`.
fn oracle_runs(n: usize, positions: &[(usize, usize)], mut f: impl FnMut(usize, usize, bool)) {
    let mut present: Option<(usize, usize)> = None;
    for &(ti, _) in positions {
        present = match present {
            None => Some((ti, ti)),
            Some((a, b)) if ti <= b + 1 => Some((a, ti)),
            Some((a, b)) => {
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

/// The earlier temporal pass; empty without a threshold.
fn oracle_temporal(w: &ConsistencyWindow<Out>, t: Option<f64>) -> Vec<Violation<u64>> {
    let mut violations = Vec::new();
    let Some(t) = t else {
        return violations;
    };
    for (id, positions) in &oracle_occurrences(w) {
        oracle_runs(w.len(), positions, |start, end, present| {
            let (first, second) = (w.time(start), w.time(end + 1));
            if second - first < t {
                violations.push(Violation::TemporalTransition {
                    id: *id,
                    first,
                    second,
                    gap: !present,
                });
            }
        });
    }
    violations
}

/// The earlier `check`: attribute mismatches, then temporal transitions.
fn oracle_check(w: &ConsistencyWindow<Out>, t: Option<f64>) -> Vec<Violation<u64>> {
    let mut violations = oracle_attributes(w, &oracle_occurrences(w));
    violations.extend(oracle_temporal(w, t));
    violations
}

/// The earlier `corrections`.
fn oracle_corrections(
    w: &ConsistencyWindow<Out>,
    t: Option<f64>,
    weak_label: impl Fn(&ConsistencyWindow<Out>, &u64, usize) -> Option<Out>,
) -> Vec<Correction<Out, u64>> {
    let mut out = Vec::new();
    let occ = oracle_occurrences(w);
    for violation in oracle_check(w, t) {
        if let Violation::AttributeMismatch {
            id,
            key,
            majority,
            dissenting,
        } = violation
        {
            for (time_index, output_index) in dissenting {
                out.push(Correction::SetAttr {
                    id,
                    time_index,
                    output_index,
                    key: key.clone(),
                    value: majority.clone(),
                });
            }
        }
    }
    let Some(t) = t else {
        return out;
    };
    for (id, positions) in &occ {
        oracle_runs(w.len(), positions, |start, end, present| {
            if w.time(end + 1) - w.time(start) >= t {
                return;
            }
            if present {
                for &(ti, oi) in positions {
                    if ti >= start && ti <= end {
                        out.push(Correction::Remove {
                            id: *id,
                            time_index: ti,
                            output_index: oi,
                        });
                    }
                }
            } else {
                for ti in start..=end {
                    if let Some(output) = weak_label(w, id, ti) {
                        out.push(Correction::Add {
                            id: *id,
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

/// A weak label that depends on every argument and sometimes declines.
fn weak_label(w: &ConsistencyWindow<Out>, id: &u64, ti: usize) -> Option<Out> {
    (ti % 4 != 1).then(|| Out {
        id: *id,
        class: ti % 3,
        color: w.len() % 2,
    })
}

/// Per invocation: a time step in quarter seconds and `(id slot, class,
/// color)` outputs.
type Draws = Vec<(u32, Vec<(usize, usize, usize)>)>;

/// Windows of 0–200 invocations, a quarter of them cut to 0–2, with 0–5
/// outputs over the eight sparse ids per invocation: empty invocations,
/// one id several times in one invocation, and disagreeing attributes
/// are all common.
fn draws() -> impl Strategy<Value = Draws> {
    (
        0usize..4,
        proptest::collection::vec(
            (
                1u32..5,
                proptest::collection::vec((0usize..IDS.len(), 0usize..3, 0usize..2), 0..6),
            ),
            0..201,
        ),
    )
        .prop_map(|(cut, mut draws)| {
            if cut == 0 {
                draws.truncate(draws.len() % 3);
            }
            draws
        })
}

fn window(draws: &Draws) -> ConsistencyWindow<Out> {
    let mut w = ConsistencyWindow::new();
    let mut quarters = 0u32;
    for (step, outs) in draws {
        quarters += step;
        w.push(
            f64::from(quarters) * 0.25,
            outs.iter()
                .map(|&(slot, class, color)| Out {
                    id: IDS[slot],
                    class,
                    color,
                })
                .collect(),
        );
    }
    w
}

/// The engine at threshold `t` quarter seconds, or without a temporal
/// threshold for `t = 0`.
fn engine(t: u32) -> (ConsistencyEngine<Spec>, Option<f64>) {
    if t == 0 {
        (ConsistencyEngine::new(Spec), None)
    } else {
        let t = f64::from(t) * 0.25;
        (
            ConsistencyEngine::new(Spec).with_temporal_threshold(t),
            Some(t),
        )
    }
}

proptest! {
    /// `check` and `corrections` return the `BTreeMap`-grouped oracle's
    /// lists, order included.
    #[test]
    fn id_sorted_grouping_matches_btree_oracle(d in draws(), t in 0u32..5) {
        let w = window(&d);
        let (engine, t) = engine(t);
        prop_assert_eq!(engine.check(&w), oracle_check(&w, t));
        prop_assert_eq!(
            engine.corrections(&w, weak_label),
            oracle_corrections(&w, t, weak_label)
        );
    }
}

/// The generated windows cover what the property promises, each in a
/// good share of cases: long and very short windows, one id several
/// times in one invocation, empty invocations, attribute mismatches, and
/// temporal violations (so runs with a threshold are not vacuous).
#[test]
fn generated_windows_cover_the_promised_cases() {
    let mut rng = proptest::case_rng("coverage", 0);
    let mut counts = [0usize; 6];
    let cases = 200;
    for _ in 0..cases {
        let d = draws().generate(&mut rng);
        let w = window(&d);
        let (engine, _) = engine(2);
        let violations = engine.check(&w);
        let has = [
            w.len() > 150,
            w.len() < 3,
            d.iter().any(|(_, outs)| {
                outs.iter()
                    .enumerate()
                    .any(|(i, a)| outs[..i].iter().any(|b| b.0 == a.0))
            }),
            d.iter().any(|(_, outs)| outs.is_empty()),
            violations.iter().any(|v| !v.is_temporal()),
            violations.iter().any(Violation::is_temporal),
        ];
        for (count, hit) in counts.iter_mut().zip(has) {
            *count += usize::from(hit);
        }
    }
    assert!(counts.iter().all(|&c| c * 8 >= cases), "{counts:?}");
}
