//! The **scenario engine**: one trait-driven pipeline from simulated
//! deployment through assertion scoring to active learning.
//!
//! The paper's core claim is that model assertions are an *abstraction*:
//! the same `assert(f(x) == y)`-style interface monitors video
//! analytics, AV sensor fusion, ECG classification, and TV news (Kang et
//! al., MLSys 2020, Table 1). This crate is that claim made executable.
//! A deployed use case implements the [`Scenario`] trait — its stream
//! item type, how a window of items becomes an assertion sample, its
//! assertion sets, its model hooks — and the *generic* drivers here do
//! everything else:
//!
//! * [`score_scenario`] — the batch reference path: every center's
//!   clamped window checked with the self-contained assertion set,
//!   fanned out across a [`ThreadPool`] and merged in stream order.
//! * [`stream_score_scenario`] — the prepare-once path: each center's
//!   clamped window borrowed in place from the item stream (zero item
//!   clones, one reused severity row per worker), one
//!   [`omg_core::stream::Prepare`] run per window shared by the whole
//!   prepared set, bit-for-bit equal to the batch path at any thread
//!   count. Both paths run on [`omg_core::stream::score_rows_chunked`].
//! * [`ScenarioLearner`] — the [`omg_active::ActiveLearner`] for any
//!   scenario that trains: score pool (streaming), label the selection,
//!   retrain, evaluate.
//! * [`errors_by_assertion`] — the Figure 3 error-attribution analysis,
//!   generic over the scenario's [`Scenario::item_errors`] hook.
//! * [`DynScenario`] / [`ScenarioHarness`] — the type-erased runtime
//!   face a **scenario registry** hands to binaries, benches, and the
//!   conformance test suite, so a new scenario is covered by every
//!   driver, bench, and test *by construction*.
//!
//! Adding a use case is implementing [`Scenario`] and registering it;
//! the drivers, the stream==batch conformance suite, and the throughput
//! bench require zero edits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drivers;
mod errors;
mod harness;
mod learner;
mod scenario;
#[cfg(test)]
pub(crate) mod tests_support;

pub use drivers::{clamped_window, score_scenario, score_window, stream_score_scenario};
pub use errors::{dedup_errors, errors_by_assertion, FoundError};
pub use harness::{DynScenario, ScenarioHarness, Scores};
pub use learner::{claim_selection, ScenarioLearner};
pub use scenario::{detection_uncertainty, Scenario};

// Re-exported so scenario implementations and harness callers can name
// the runtime without an `omg-core` import.
pub use omg_core::runtime::ThreadPool;
