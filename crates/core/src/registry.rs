use crate::{Assertion, FnAssertion, Severity};

/// Stable index of an assertion within an [`AssertionSet`].
///
/// BAL treats each data point's per-assertion severity vector as its
/// bandit context; `AssertionId` is the dimension index of that vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AssertionId(pub usize);

impl std::fmt::Display for AssertionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "assertion#{}", self.0)
    }
}

/// The prepared-path check of one assertion: severity from the sample
/// plus the set's shared preparation artifact (see
/// [`crate::stream::Prepare`]).
type PreparedCheck<S, P> = Box<dyn Fn(&S, &P) -> Severity + Send + Sync>;

/// One registered assertion: the self-contained reference check, plus an
/// optional fast-path check that consumes a shared per-sample preparation
/// artifact instead of re-deriving it.
struct Entry<S, P> {
    assertion: Box<dyn Assertion<S>>,
    prepared: Option<PreparedCheck<S, P>>,
}

impl<S, P> Entry<S, P> {
    /// The prepared-path check if one is registered, else the plain one.
    fn check_prepared(&self, sample: &S, prep: &P) -> Severity {
        match &self.prepared {
            Some(check) => check(sample, prep),
            None => self.assertion.check(sample),
        }
    }
}

/// An ordered registry of assertions over sample type `S` — the paper's
/// collaboratively maintained "assertion database" interface (Figure 2).
///
/// The second type parameter `P` is the *shared preparation artifact*
/// expensive per-sample derivations (tracking, beat segmentation) produce
/// once per sample for every assertion to consume; it defaults to `()`
/// (no shared preparation), so `AssertionSet<S>` reads as before. See
/// [`crate::stream`] for the preparation layer and
/// [`AssertionSet::check_all_prepared`] for the fast path.
///
/// # Example
///
/// ```
/// use omg_core::{AssertionSet, FnAssertion, Severity};
///
/// let mut set: AssertionSet<Vec<i32>> = AssertionSet::new();
/// let id = set.add_fn("non-empty", |xs: &Vec<i32>| Severity::from_bool(xs.is_empty()));
/// let outcomes = set.check_all(&vec![]);
/// assert_eq!(outcomes.len(), 1);
/// assert!(outcomes[0].1.fired());
/// assert_eq!(set.name(id), "non-empty");
/// ```
pub struct AssertionSet<S, P = ()> {
    entries: Vec<Entry<S, P>>,
}

impl<S: 'static, P> AssertionSet<S, P> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    fn assert_unique(&self, name: &str) {
        assert!(
            self.entries.iter().all(|e| e.assertion.name() != name),
            "duplicate assertion name: {name}"
        );
    }

    /// Registers an assertion and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if another assertion with the same name is already
    /// registered (names key experiment tables and must be unique).
    pub fn add<A>(&mut self, assertion: A) -> AssertionId
    where
        A: Assertion<S> + 'static,
    {
        self.add_boxed(Box::new(assertion))
    }

    /// Registers a closure assertion — OMG's `AddAssertion(func)`.
    pub fn add_fn<N, F>(&mut self, name: N, func: F) -> AssertionId
    where
        N: Into<String>,
        F: Fn(&S) -> Severity + Send + Sync + 'static,
    {
        self.add(FnAssertion::new(name, func))
    }

    /// Registers a boxed assertion (used by the consistency engine, which
    /// generates assertions dynamically).
    pub fn add_boxed(&mut self, assertion: Box<dyn Assertion<S>>) -> AssertionId {
        self.assert_unique(assertion.name());
        self.entries.push(Entry {
            assertion,
            prepared: None,
        });
        AssertionId(self.entries.len() - 1)
    }

    /// Registers an assertion together with its prepared-path check.
    ///
    /// `assertion.check` stays the self-contained reference
    /// implementation (it derives whatever it needs from the sample
    /// alone); `prepared` must compute the *same* severity from the
    /// sample plus a shared preparation artifact. The engine's
    /// equivalence property tests hold the two paths bit-for-bit equal.
    ///
    /// # Panics
    ///
    /// Panics if another assertion with the same name is already
    /// registered.
    pub fn add_prepared<A, F>(&mut self, assertion: A, prepared: F) -> AssertionId
    where
        A: Assertion<S> + 'static,
        F: Fn(&S, &P) -> Severity + Send + Sync + 'static,
    {
        self.assert_unique(assertion.name());
        self.entries.push(Entry {
            assertion: Box::new(assertion),
            prepared: Some(Box::new(prepared)),
        });
        AssertionId(self.entries.len() - 1)
    }

    /// Number of registered assertions (the bandit context dimension `d`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The name of an assertion.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this set.
    pub fn name(&self, id: AssertionId) -> &str {
        // PANIC: documented contract — ids are minted by this set.
        self.entries[id.0].assertion.name()
    }

    /// All assertion names in id order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.assertion.name()).collect()
    }

    /// All assertion ids in order.
    pub fn ids(&self) -> Vec<AssertionId> {
        (0..self.entries.len()).map(AssertionId).collect()
    }

    /// The id of the assertion with the given name, if registered.
    pub fn id_of(&self, name: &str) -> Option<AssertionId> {
        self.entries
            .iter()
            .position(|e| e.assertion.name() == name)
            .map(AssertionId)
    }

    /// Whether the assertion has a prepared-path check registered.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this set.
    pub fn has_prepared(&self, id: AssertionId) -> bool {
        self.entries[id.0].prepared.is_some()
    }

    /// Runs every assertion on the sample, returning `(id, severity)` for
    /// all of them (including abstentions, so the result is a dense
    /// severity vector).
    ///
    /// This is the *reference* path: each assertion is self-contained and
    /// re-derives any expensive artifact itself. The streaming engine
    /// calls [`AssertionSet::check_all_prepared`] instead so the
    /// derivation runs once per sample.
    pub fn check_all(&self, sample: &S) -> Vec<(AssertionId, Severity)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (AssertionId(i), e.assertion.check(sample)))
            .collect()
    }

    /// Runs every assertion on the sample with a shared, already-computed
    /// preparation artifact: assertions registered via
    /// [`AssertionSet::add_prepared`] consume `prep` instead of
    /// re-deriving it, the rest fall back to their plain check.
    ///
    /// For deterministic preparers this is bit-for-bit equal to
    /// [`AssertionSet::check_all`] (enforced by the engine's equivalence
    /// property tests); only the wall-clock differs.
    pub fn check_all_prepared(&self, sample: &S, prep: &P) -> Vec<(AssertionId, Severity)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (AssertionId(i), e.check_prepared(sample, prep)))
            .collect()
    }

    /// The columnar form of [`AssertionSet::check_all_prepared`]: `out`
    /// is cleared and refilled with the **raw severity values** in
    /// assertion-id order — one dense `f64` row ready to push into a
    /// [`crate::SeverityMatrix`]. This is the allocation-free form the
    /// scoring hot loop uses, reusing one row buffer across every window.
    ///
    /// The id of position `m` is `AssertionId(m)` by construction, so no
    /// information is lost relative to the `(id, severity)` row form;
    /// `Severity::new` round-trips each value exactly.
    pub fn check_all_prepared_values(&self, sample: &S, prep: &P, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .map(|e| e.check_prepared(sample, prep).value()),
        );
    }

    /// Runs one assertion on the sample.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this set.
    pub fn check_one(&self, id: AssertionId, sample: &S) -> Severity {
        self.entries[id.0].assertion.check(sample)
    }
}

impl<S: 'static, P> Default for AssertionSet<S, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: 'static, P> std::fmt::Debug for AssertionSet<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AssertionSet")
            .field("assertions", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> AssertionSet<i32> {
        let mut set = AssertionSet::new();
        set.add_fn("negative", |&x: &i32| Severity::from_bool(x < 0));
        set.add_fn("huge", |&x: &i32| Severity::from_bool(x > 1000));
        set
    }

    #[test]
    fn add_and_check_all() {
        let set = sample_set();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        let out = set.check_all(&-5);
        assert!(out[0].1.fired());
        assert!(!out[1].1.fired());
        let out = set.check_all(&5000);
        assert!(!out[0].1.fired());
        assert!(out[1].1.fired());
    }

    #[test]
    fn names_and_lookup() {
        let set = sample_set();
        assert_eq!(set.names(), vec!["negative", "huge"]);
        assert_eq!(set.id_of("huge"), Some(AssertionId(1)));
        assert_eq!(set.id_of("missing"), None);
        assert_eq!(set.name(AssertionId(0)), "negative");
        assert_eq!(set.ids(), vec![AssertionId(0), AssertionId(1)]);
    }

    #[test]
    fn check_one() {
        let set = sample_set();
        assert!(set.check_one(AssertionId(0), &-1).fired());
        assert!(!set.check_one(AssertionId(0), &1).fired());
    }

    #[test]
    fn check_all_prepared_values_matches_the_row_form() {
        let set = sample_set();
        let mut values = Vec::new();
        for sample in [-5, 0, 5000] {
            set.check_all_prepared_values(&sample, &(), &mut values);
            let want: Vec<f64> = set
                .check_all_prepared(&sample, &())
                .into_iter()
                .map(|(_, sev)| sev.value())
                .collect();
            assert_eq!(values, want);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate assertion name")]
    fn duplicate_names_rejected() {
        let mut set = sample_set();
        set.add_fn("negative", |_: &i32| Severity::ABSTAIN);
    }

    #[test]
    fn debug_lists_names() {
        let set = sample_set();
        let s = format!("{set:?}");
        assert!(s.contains("negative") && s.contains("huge"));
    }

    #[test]
    fn display_of_id() {
        assert_eq!(AssertionId(3).to_string(), "assertion#3");
    }
}
