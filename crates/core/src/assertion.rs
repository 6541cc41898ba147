use crate::Severity;

/// A model assertion over a domain sample type `S`.
///
/// A sample bundles whatever the assertion needs to see — typically a short
/// window of recent model inputs and outputs, matching the paper's
/// signature `flickering(recent_frames, recent_outputs) -> Float`. The
/// assertion returns a [`Severity`]: `0` abstains, anything positive flags
/// a potential error of this assertion's type.
///
/// Implementations must be deterministic pure functions of the sample;
/// the engine may re-check samples (e.g. when replaying the assertion
/// database).
pub trait Assertion<S>: Send + Sync {
    /// A short, stable, human-readable name (used in reports, the
    /// assertion database, and experiment tables).
    fn name(&self) -> &str;

    /// Checks the sample and returns a severity score.
    fn check(&self, sample: &S) -> Severity;
}

/// A closure-backed [`Assertion`] — the equivalent of OMG's
/// `AddAssertion(func)` for registering "arbitrary Python functions".
///
/// # Example
///
/// ```
/// use omg_core::{Assertion, FnAssertion, Severity};
///
/// let non_empty = FnAssertion::new("output-non-empty", |outputs: &Vec<u32>| {
///     Severity::from_bool(outputs.is_empty())
/// });
/// assert_eq!(non_empty.name(), "output-non-empty");
/// assert!(non_empty.check(&vec![]).fired());
/// assert!(!non_empty.check(&vec![1]).fired());
/// ```
pub struct FnAssertion<S> {
    name: String,
    func: Box<dyn Fn(&S) -> Severity + Send + Sync>,
}

impl<S> FnAssertion<S> {
    /// Wraps a closure as an assertion.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new<N, F>(name: N, func: F) -> Self
    where
        N: Into<String>,
        F: Fn(&S) -> Severity + Send + Sync + 'static,
    {
        let name = name.into();
        assert!(!name.is_empty(), "assertion name must be non-empty");
        Self {
            name,
            func: Box::new(func),
        }
    }
}

impl<S> Assertion<S> for FnAssertion<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&self, sample: &S) -> Severity {
        (self.func)(sample)
    }
}

impl<S> std::fmt::Debug for FnAssertion<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnAssertion")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_assertion_checks() {
        let a = FnAssertion::new("count-evens", |xs: &Vec<i32>| {
            Severity::from_count(xs.iter().filter(|&&x| x % 2 == 0).count())
        });
        assert_eq!(a.check(&vec![1, 2, 4]).value(), 2.0);
        assert!(!a.check(&vec![1, 3]).fired());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_rejected() {
        FnAssertion::new("", |_: &u32| Severity::ABSTAIN);
    }

    #[test]
    fn debug_shows_name() {
        let a = FnAssertion::new("x", |_: &u32| Severity::ABSTAIN);
        assert!(format!("{a:?}").contains("\"x\""));
    }

    #[test]
    fn assertions_are_object_safe() {
        let a: Box<dyn Assertion<u32>> =
            Box::new(FnAssertion::new("boxed", |_: &u32| Severity::FIRED));
        assert!(a.check(&0).fired());
    }
}
