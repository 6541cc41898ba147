//! Model threads: scheduler-registered spawn/join, mirroring the tiny
//! slice of `std::thread` the worker pool uses.

use crate::sched::with_exec;
use std::any::Any;

/// Spawns a model thread running `f`. The thread is registered with
/// the scheduler and only runs when it holds the token, like every
/// other model thread.
pub fn spawn<F>(f: F) -> JoinHandle
where
    F: FnOnce() + Send + 'static,
{
    let tid = with_exec(|e| e.spawn_model(f));
    JoinHandle { tid }
}

/// [`spawn`] with a (ignored) thread name, so the production pool's
/// named-worker spawn routes through the model unchanged.
pub fn spawn_named<F>(_name: String, f: F) -> JoinHandle
where
    F: FnOnce() + Send + 'static,
{
    spawn(f)
}

/// Handle to a model thread; `join` blocks (a free scheduler switch)
/// until the thread finishes.
#[derive(Debug)]
pub struct JoinHandle {
    tid: usize,
}

impl JoinHandle {
    /// Waits for the thread to finish. Never returns `Err`: an escaped
    /// panic on a model thread is reported as a model-checking failure
    /// instead.
    pub fn join(self) -> Result<(), Box<dyn Any + Send>> {
        with_exec(|e| e.join_model(self.tid));
        Ok(())
    }
}
