//! Model `Mutex`/`Condvar`/atomics: API-compatible stand-ins for the
//! `std::sync` types the worker pool uses, with every operation routed
//! through the DFS scheduler as a visible step.
//!
//! The types wrap their `std` counterparts — the real lock is only ever
//! taken by the one model thread holding the scheduler token, so it is
//! never contended and the wrapper needs no `unsafe`. Lock *contention*
//! is modeled in the scheduler's bookkeeping (`mutex_held` / waiter
//! sets), not in the OS.
//!
//! Poisoning is not modeled: a model thread that panics is itself a
//! reported failure (or an expected, locally-caught panic on the
//! production pool's chunk path), so `lock()` always returns `Ok` and
//! the production code's `.expect("poisoned")` calls never fire under
//! the model. Memory ordering arguments are accepted and ignored — the
//! checker explores sequentially consistent interleavings (see the
//! crate docs for why the pool's `Relaxed` survivors are audited by
//! hand instead).

use crate::sched::with_exec;
use std::sync::atomic::Ordering;

/// Error half of what [`Mutex::lock`] and [`Condvar::wait`] return;
/// never constructed (see module docs).
#[derive(Debug)]
pub struct NeverPoisoned;

/// What model [`Mutex::lock`] and [`Condvar::wait`] return: always
/// `Ok`, but `Result`-shaped so production `.expect(...)` calls compile
/// unchanged.
type LockResult<T> = Result<T, NeverPoisoned>;

fn addr_of<T: ?Sized>(x: &T) -> usize {
    std::ptr::from_ref(x) as *const () as usize
}

/// Model mutex: scheduler-visible acquire/release around an
/// uncontended `std::sync::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a model mutex holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the mutex, blocking the model thread (a free scheduler
    /// switch, not a preemption) while another model thread holds it.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        with_exec(|e| e.mutex_acquire(addr_of(self)));
        let real = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(MutexGuard {
            real: Some(real),
            lock: self,
        })
    }

    /// Consumes the mutex and returns its value.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self
            .inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

/// Guard for a locked model [`Mutex`]; releasing it is a visible
/// scheduler step.
pub struct MutexGuard<'a, T> {
    real: Option<std::sync::MutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard already released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard already released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(real) = self.real.take() {
            drop(real);
            with_exec(|e| e.mutex_release(addr_of(self.lock)));
        }
    }
}

/// Model condition variable.
///
/// `wait` atomically (w.r.t. the model) releases the mutex and parks;
/// a parked thread only becomes runnable again via `notify_*`, so a
/// lost wakeup shows up as a deadlock with the schedule that produced
/// it. The post-notify mutex reacquire is modeled as an ordinary
/// contended lock.
#[derive(Debug, Default)]
pub struct Condvar {
    // Identity anchor: condvar state lives in the scheduler, keyed by
    // this object's address, so the type must not be zero-sized.
    _anchor: u8,
}

impl Condvar {
    /// Creates a model condvar.
    pub fn new() -> Self {
        Self { _anchor: 0 }
    }

    /// Releases `guard`'s mutex and parks until notified, then
    /// reacquires the mutex and returns a fresh guard.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        // Drop the real lock by hand so the guard's Drop does not also
        // report a model-level release: the release below is part of
        // the atomic release-and-park.
        drop(guard.real.take());
        drop(guard);
        with_exec(|e| e.condvar_wait(addr_of(self), addr_of(lock)));
        lock.lock()
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        with_exec(|e| e.condvar_notify(addr_of(self)));
    }
}

/// Model `AtomicUsize`: every access is a visible scheduler step; the
/// ordering argument is accepted and ignored (SC exploration).
#[derive(Debug, Default)]
pub struct AtomicUsize {
    inner: std::sync::atomic::AtomicUsize,
}

impl AtomicUsize {
    /// Creates a model atomic with `value`.
    pub fn new(value: usize) -> Self {
        Self {
            inner: std::sync::atomic::AtomicUsize::new(value),
        }
    }

    /// Atomic load (visible step).
    pub fn load(&self, order: Ordering) -> usize {
        with_exec(|e| e.schedule("atomic.load"));
        self.inner.load(order)
    }

    /// Atomic store (visible step).
    pub fn store(&self, value: usize, order: Ordering) {
        with_exec(|e| e.schedule("atomic.store"));
        self.inner.store(value, order);
    }

    /// Atomic add, returning the previous value (visible step).
    pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
        with_exec(|e| e.schedule("atomic.fetch_add"));
        self.inner.fetch_add(value, order)
    }
}

/// Model `AtomicBool`: every access is a visible scheduler step.
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Creates a model atomic with `value`.
    pub fn new(value: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(value),
        }
    }

    /// Atomic load (visible step).
    pub fn load(&self, order: Ordering) -> bool {
        with_exec(|e| e.schedule("atomic.load"));
        self.inner.load(order)
    }

    /// Atomic store (visible step).
    pub fn store(&self, value: bool, order: Ordering) {
        with_exec(|e| e.schedule("atomic.store"));
        self.inner.store(value, order);
    }
}
