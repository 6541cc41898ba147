//! The synchronization **facade** the worker pool is written against.
//!
//! In production builds this module is nothing but re-exports of
//! `std::sync` plus inlined no-op hooks — the pool compiles to exactly
//! the code it would with direct `std` imports. Under
//! `RUSTFLAGS="--cfg omg_model"` every primitive swaps for its
//! `omg-verify` model twin: mutex acquires, condvar waits, atomic
//! accesses, and thread spawns all become visible steps of a DFS
//! interleaving scheduler, and the job-cell hooks feed a liveness
//! registry that turns the pool's one `unsafe` hazard — a worker
//! dereferencing the submitter's stack after retraction — into a
//! deterministic, schedule-attributed model failure.
//!
//! The point of the indirection is that the *production* pool source
//! is what gets model-checked: `omg-verify`'s pool suite exercises
//! [`crate::runtime::ThreadPool`] itself, not a hand-maintained
//! replica of it. See `crates/verify` and `DESIGN.md` §"Verification".

#[cfg(not(omg_model))]
pub use std::sync::atomic::{AtomicBool, AtomicUsize};
#[cfg(not(omg_model))]
pub use std::sync::{Condvar, Mutex};

#[cfg(omg_model)]
pub use omg_verify::sync::{AtomicBool, AtomicUsize, Condvar, Mutex};

/// The slice of `std::thread` the pool uses, model-swappable.
pub mod thread {
    /// Handle to a pool worker thread.
    #[cfg(not(omg_model))]
    pub type JoinHandle = std::thread::JoinHandle<()>;

    #[cfg(omg_model)]
    pub use omg_verify::thread::JoinHandle;

    /// Spawns a named worker thread.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the thread.
    #[cfg(not(omg_model))]
    pub fn spawn_named<F>(name: String, f: F) -> JoinHandle
    where
        F: FnOnce() + Send + 'static,
    {
        // PANIC: OS thread-spawn failure at pool startup is fatal by
        // design — there is no degraded mode without workers.
        std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("spawn pool worker")
    }

    #[cfg(omg_model)]
    pub use omg_verify::thread::spawn_named;
}

/// Liveness hooks around the pool's lifetime-erased job cell. No-ops
/// in production; under the model they feed the registry that catches
/// use-after-retract and drain-handshake violations with the exact
/// interleaving that produced them.
pub mod job_cell {
    /// Job published: the cell now points into the submitter's frame.
    #[cfg(not(omg_model))]
    #[inline(always)]
    pub fn publish(_ptr: *const ()) {}

    /// Job retracted: no worker may touch the cell from here on.
    #[cfg(not(omg_model))]
    #[inline(always)]
    pub fn retract(_ptr: *const ()) {}

    /// A thread is about to read through the cell; `_what` names the
    /// site in model failure reports.
    #[cfg(not(omg_model))]
    #[inline(always)]
    pub fn assert_live(_ptr: *const (), _what: &'static str) {}

    /// A worker entered the job (is now holding a reference into the
    /// submitter's frame).
    #[cfg(not(omg_model))]
    #[inline(always)]
    pub fn enter(_ptr: *const (), _what: &'static str) {}

    /// The matching exit for [`enter`].
    #[cfg(not(omg_model))]
    #[inline(always)]
    pub fn exit(_ptr: *const ()) {}

    /// Zero-sized production stand-in for the model's frame canary.
    #[cfg(not(omg_model))]
    #[derive(Debug)]
    pub struct FrameGuard;

    /// Arms a canary for the frame that owns the job cell; under the
    /// model, dropping it while the job is published or occupied is a
    /// reported drain violation.
    #[cfg(not(omg_model))]
    #[inline(always)]
    pub fn frame_guard(_ptr: *const ()) -> FrameGuard {
        FrameGuard
    }

    #[cfg(omg_model)]
    pub use omg_verify::cell::{
        assert_live, enter, exit, frame_guard, publish, retract, FrameGuard,
    };
}

/// True when the named seeded mutation is enabled — always `false` in
/// production builds (the call sites fold away), and under the model
/// only when the running `omg_verify::Config` asks for that mutation.
/// See `omg_verify::mutations`.
#[cfg(not(omg_model))]
#[inline(always)]
pub fn mutation_enabled(_name: &str) -> bool {
    false
}

/// The model build's switch: asks the running `omg_verify::Config`.
#[cfg(omg_model)]
#[inline(always)]
pub fn mutation_enabled(name: &str) -> bool {
    omg_verify::mutations::enabled(name)
}
