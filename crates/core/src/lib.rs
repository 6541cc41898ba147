//! `omg-core` — the model-assertion engine.
//!
//! This crate is a Rust implementation of **OMG**, the library introduced in
//! *Model Assertions for Monitoring and Improving ML Models* (Kang et al.,
//! MLSys 2020). A *model assertion* is an arbitrary function over a model's
//! inputs and outputs that returns a severity score indicating when an
//! error may be occurring (§2.1 of the paper). The engine is agnostic to
//! what produced the outputs — an ML model, a sensor pipeline, or a human
//! labeler.
//!
//! # Architecture
//!
//! * [`Severity`] — the score an assertion returns. `0` is an abstention;
//!   only the *relative order* of non-zero scores is meaningful.
//! * [`Assertion`] — the assertion trait over a domain *sample* type `S`
//!   (typically a short window of recent inputs and outputs, mirroring
//!   OMG's `flickering(recent_frames, recent_outputs) -> Float`
//!   signature). [`FnAssertion`] adapts closures, which is the equivalent
//!   of OMG's `AddAssertion(func)`.
//! * [`AssertionSet`] — an ordered registry of assertions; its
//!   [`AssertionId`]s index the per-assertion severity vectors that the
//!   bandit-based active-learning algorithm (BAL, `omg-active`) consumes
//!   as contexts.
//! * [`AssertionDb`] — the append-only "assertion database" of the paper's
//!   Figure 2: every checked sample's outcomes, queryable by assertion,
//!   fire count, or severity rank.
//! * [`Monitor`] — runtime monitoring: runs the registered assertions
//!   after each model invocation (preparing each sample once when built
//!   with [`Monitor::with_preparer`]), records outcomes, and invokes
//!   corrective-action hooks whose severity threshold is crossed (the
//!   paper's "automatically trigger corrective actions, e.g., shutting
//!   down an autopilot"). `Monitor::process_batch` scores whole batches
//!   in parallel over a [`runtime::ThreadPool`], bit-for-bit equal to
//!   the sequential path.
//! * [`runtime`] — the dependency-free **persistent** worker-thread pool
//!   behind the batch and streaming paths: long-lived workers parked on
//!   a condvar, jobs (not spawns) per scoring call, deterministic
//!   input-order merging.
//! * [`stream`] — the streaming engine: the [`stream::Prepare`] shared
//!   window-preparation layer (expensive derivations run once per
//!   window, shared by every assertion via
//!   [`AssertionSet::check_all_prepared`]) and
//!   [`stream::score_rows_chunked`], the one chunked scoring driver over
//!   windows borrowed in place from the item slice — bit-for-bit equal
//!   to the batch reference at any thread count.
//! * [`consistency`] — the high-level consistency-assertion API of §4:
//!   from an identifier function, an attributes function, and a temporal
//!   threshold `T`, OMG generates Boolean assertions *and* correction
//!   rules that propose weak labels.
//! * [`taxonomy`] — the assertion taxonomy of the paper's Table 5.
//!
//! # Example
//!
//! ```
//! use omg_core::{FnAssertion, Monitor, Severity};
//!
//! // The domain sample: consecutive classifier outputs.
//! struct Sample { recent: Vec<usize> }
//!
//! // An assertion: the prediction should not oscillate A -> B -> A.
//! let flip_flop = FnAssertion::new("flip-flop", |s: &Sample| {
//!     let w = &s.recent;
//!     let oscillations = w.windows(3)
//!         .filter(|t| t[0] == t[2] && t[0] != t[1])
//!         .count();
//!     Severity::from_count(oscillations)
//! });
//!
//! let mut monitor = Monitor::new();
//! let id = monitor.assertions_mut().add(flip_flop);
//! let report = monitor.process(&Sample { recent: vec![0, 1, 0, 0] });
//! assert!(report.fired(id));
//! assert_eq!(monitor.db().fire_count(id), 1);
//! ```

// `deny`, not `forbid`: the persistent pool's lifetime-erased job cell
// (see `runtime`) is the one audited exception, opted in via scoped
// `#[allow(unsafe_code)]`. Everything else in the crate is safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod assertion;
pub mod consistency;
mod database;
pub mod float;
mod monitor;
mod registry;
pub mod runtime;
mod severity;
pub mod stream;
pub mod sync;
pub mod taxonomy;

pub use assertion::{Assertion, FnAssertion};
pub use database::{AssertionDb, Record};
pub use monitor::{Monitor, SampleReport};
pub use registry::{AssertionId, AssertionSet};
pub use severity::{Severity, SeverityMatrix};
