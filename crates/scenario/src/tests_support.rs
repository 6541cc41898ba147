//! A tiny self-contained scenario used by this crate's unit tests: an
//! integer stream, window sums, and a labeling-counting "model".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use omg_core::stream::{FnPrepare, Prepare};
use omg_core::{AssertionSet, Severity};
use rand::rngs::StdRng;

use crate::{FoundError, Scenario};

/// The toy's "model": training just records how many points were
/// labeled, so learner tests can observe training through `evaluate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ToyModel {
    pub labeled: usize,
}

/// A deterministic integer-stream scenario with two assertions.
#[derive(Debug, Clone)]
pub struct ToyScenario {
    n: usize,
    trains: bool,
}

impl ToyScenario {
    pub fn new(n: usize) -> Self {
        Self { n, trains: true }
    }

    pub fn monitoring_only(n: usize) -> Self {
        Self { n, trains: false }
    }
}

type ToySample = (Vec<i64>, usize);

impl Scenario for ToyScenario {
    type Item = i64;
    type Sample = ToySample;
    type Prep = i64;
    type Model = ToyModel;
    type Labels = Vec<usize>;

    fn name(&self) -> &'static str {
        "toy"
    }

    fn window_half(&self) -> usize {
        1
    }

    fn pool_len(&self) -> usize {
        self.n
    }

    fn pretrained_model(&self, _seed: u64) -> ToyModel {
        ToyModel::default()
    }

    fn run_model(&self, _model: &ToyModel) -> Vec<i64> {
        (0..self.n as i64).map(|i| ((i * 31) % 17) - 8).collect()
    }

    fn assertion_set(&self) -> AssertionSet<ToySample> {
        let mut set = AssertionSet::new();
        set.add_fn("negative-sum", |s: &ToySample| {
            Severity::from_bool(s.0.iter().sum::<i64>() < 0)
        });
        set.add_fn("large-center", |s: &ToySample| {
            // PANIC: make_sample stores a center < window length.
            Severity::from_bool(s.0[s.1].abs() > 5)
        });
        set
    }

    fn prepared_set(&self) -> AssertionSet<ToySample, i64> {
        let mut set: AssertionSet<ToySample, i64> = AssertionSet::new();
        set.add_prepared(
            omg_core::FnAssertion::new("negative-sum", |s: &ToySample| {
                Severity::from_bool(s.0.iter().sum::<i64>() < 0)
            }),
            |_s: &ToySample, &sum: &i64| Severity::from_bool(sum < 0),
        );
        set.add_fn("large-center", |s: &ToySample| {
            // PANIC: make_sample stores a center < window length.
            Severity::from_bool(s.0[s.1].abs() > 5)
        });
        set
    }

    fn preparer(&self) -> Box<dyn Prepare<ToySample, Prepared = i64>> {
        Box::new(FnPrepare::new(|s: &ToySample| s.0.iter().sum::<i64>()))
    }

    fn make_sample(&self, items: &[i64], center: usize) -> ToySample {
        (items.to_vec(), center)
    }

    fn uncertainty(&self, item: &i64) -> f64 {
        item.rem_euclid(10) as f64 / 10.0
    }

    fn trains(&self) -> bool {
        self.trains
    }

    fn initial_labels(&self) -> Vec<usize> {
        Vec::new()
    }

    fn label_into(&self, labels: &mut Vec<usize>, pool_index: usize) {
        labels.push(pool_index);
    }

    fn train(&self, model: &mut ToyModel, labels: &Vec<usize>, _rng: &mut StdRng) {
        model.labeled = labels.len();
    }

    fn evaluate(&self, model: &ToyModel) -> f64 {
        model.labeled as f64
    }

    fn item_errors(&self, assertion: &str, items: &[i64], center: usize) -> Vec<FoundError> {
        if assertion != "large-center" {
            return Vec::new();
        }
        vec![FoundError {
            confidence: 0.5,
            frame: center,
            // PANIC: item_errors receives a center inside `items`.
            source: items[center].unsigned_abs(),
        }]
    }
}

/// A stream item that counts every `clone` of itself — the instrument
/// behind the zero-copy conformance tests: the streaming drivers must
/// score a whole stream without cloning a single item.
#[derive(Debug)]
pub struct CountedItem {
    pub value: i64,
    clones: Arc<AtomicUsize>,
}

impl Clone for CountedItem {
    fn clone(&self) -> Self {
        // The probe: every item clone anywhere in the pipeline lands
        // here. (The `Arc` clone below shares the counter; it is not an
        // item copy itself — it *is* this count increasing.)
        self.clones.fetch_add(1, Ordering::SeqCst);
        Self {
            value: self.value,
            clones: self.clones.clone(),
        }
    }
}

/// The toy scenario instrumented with [`CountedItem`]s: same stream and
/// assertion semantics as [`ToyScenario`] (windowed sums, `half = 2`),
/// but `run_model` emits clone-counting items and `make_sample` reads
/// the borrowed window without copying it, so [`Self::item_clones`]
/// measures exactly the clones the *drivers* perform.
#[derive(Debug, Clone)]
pub struct CloneProbeScenario {
    n: usize,
    clones: Arc<AtomicUsize>,
}

/// The probe's sample: (window sum, center value) — derived from the
/// borrowed window, owning no items.
type ProbeSample = (i64, i64);

impl CloneProbeScenario {
    pub fn new(n: usize) -> Self {
        Self {
            n,
            clones: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Number of item clones performed anywhere since construction.
    pub fn item_clones(&self) -> usize {
        self.clones.load(Ordering::SeqCst)
    }
}

impl Scenario for CloneProbeScenario {
    type Item = CountedItem;
    type Sample = ProbeSample;
    type Prep = i64;
    type Model = ToyModel;
    type Labels = Vec<usize>;

    fn name(&self) -> &'static str {
        "clone-probe"
    }

    fn window_half(&self) -> usize {
        2
    }

    fn pool_len(&self) -> usize {
        self.n
    }

    fn pretrained_model(&self, _seed: u64) -> ToyModel {
        ToyModel::default()
    }

    fn run_model(&self, _model: &ToyModel) -> Vec<CountedItem> {
        (0..self.n as i64)
            .map(|i| CountedItem {
                value: ((i * 31) % 17) - 8,
                clones: self.clones.clone(),
            })
            .collect()
    }

    fn assertion_set(&self) -> AssertionSet<ProbeSample> {
        let mut set = AssertionSet::new();
        set.add_fn("negative-sum", |s: &ProbeSample| {
            Severity::from_bool(s.0 < 0)
        });
        set.add_fn("large-center", |s: &ProbeSample| {
            Severity::from_bool(s.1.abs() > 5)
        });
        set
    }

    fn prepared_set(&self) -> AssertionSet<ProbeSample, i64> {
        let mut set: AssertionSet<ProbeSample, i64> = AssertionSet::new();
        set.add_prepared(
            omg_core::FnAssertion::new("negative-sum", |s: &ProbeSample| {
                Severity::from_bool(s.0 < 0)
            }),
            |_s: &ProbeSample, &sum: &i64| Severity::from_bool(sum < 0),
        );
        set.add_fn("large-center", |s: &ProbeSample| {
            Severity::from_bool(s.1.abs() > 5)
        });
        set
    }

    fn preparer(&self) -> Box<dyn Prepare<ProbeSample, Prepared = i64>> {
        Box::new(FnPrepare::new(|s: &ProbeSample| s.0))
    }

    fn make_sample(&self, items: &[CountedItem], center: usize) -> ProbeSample {
        // Reads the borrowed window in place; clones nothing.
        // PANIC: the drivers pass center < items.len() by contract.
        (items.iter().map(|i| i.value).sum(), items[center].value)
    }

    fn uncertainty(&self, item: &CountedItem) -> f64 {
        item.value.rem_euclid(10) as f64 / 10.0
    }

    fn initial_labels(&self) -> Vec<usize> {
        Vec::new()
    }

    fn label_into(&self, labels: &mut Vec<usize>, pool_index: usize) {
        labels.push(pool_index);
    }

    fn train(&self, model: &mut ToyModel, labels: &Vec<usize>, _rng: &mut StdRng) {
        model.labeled = labels.len();
    }

    fn evaluate(&self, model: &ToyModel) -> f64 {
        model.labeled as f64
    }
}
