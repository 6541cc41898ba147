//! A dependency-free **persistent** worker-thread runtime for
//! data-parallel assertion checking.
//!
//! The paper's §7 argues assertion monitoring is cheap enough to run
//! inline with deployment ("can be run … over every model invocation");
//! scaling that to many streams and large assertion sets means scoring
//! independent `(sample, assertion)` pairs on every core — *without*
//! paying a thread spawn per scoring call. [`ThreadPool`] keeps
//! `threads - 1` long-lived workers parked on a condvar (the calling
//! thread is always worker 0), hands each `map_indexed` call to them as
//! a **job** through a lifetime-erased job cell, and merges results with
//! **deterministic, input-order merging**. Between jobs the workers cost
//! nothing but a parked thread; a streaming hot loop that scores
//! thousands of batches re-uses the same workers for all of them (the
//! engine's zero-respawn probe pins this down).
//!
//! A pool has one worker count, [`ThreadPool::threads`]: the threads
//! [`ThreadPool::new`] spawns, and the count the chunked scoring driver
//! ([`crate::stream::score_rows_chunked`]) splits its rows for. It is
//! taken as given on any host, so a pool asked for more threads than
//! the machine has cores oversubscribes them.
//!
//! # Borrowed data without `'static`
//!
//! Jobs borrow the caller's stack: the closure, the atomic chunk cursor,
//! and the result buffers all live in the `map_indexed` frame, published
//! to the workers as a type-erased `(data pointer, run function)` pair.
//! Soundness rests on a strict handshake: a worker may only *join* a job
//! under the pool mutex (incrementing the in-flight count), and the
//! submitting call only retracts the job — and only then returns — after
//! the in-flight count has drained to zero. No worker can observe the
//! job cell after the frame it points into is gone. This is the one
//! place in the engine that uses `unsafe`; everything above it is safe
//! code.
//!
//! The handshake is not just argued — it is **model checked**: the pool
//! is written against the [`crate::sync`] facade, and under
//! `--cfg omg_model` the `omg-verify` crate explores every interleaving
//! of this exact source (publish, join, drain, retract, shutdown)
//! within a preemption bound, with seeded mutations proving each
//! invariant check can actually fire. See `DESIGN.md` §"Verification".
//!
//! # Determinism
//!
//! [`ThreadPool::map_indexed`] self-schedules contiguous index chunks
//! onto workers via an atomic cursor, so *which* thread computes an item
//! is nondeterministic — but every item is a pure function of its index
//! and the merged output is always in index order. Callers that keep
//! their closures pure therefore get bit-for-bit identical results at any
//! thread count, which the engine's determinism property tests enforce.
//!
//! # Panics
//!
//! A panic inside a job closure is caught on whichever thread hit it,
//! the job is aborted (no new chunks start), and the first panic payload
//! is re-thrown on the calling thread once every worker has left the
//! job. The workers themselves survive: the pool remains usable after a
//! panicked job.
//!
//! # Example
//!
//! ```
//! use omg_core::runtime::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.map_indexed(5, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! // Identical to the sequential path, at any thread count.
//! assert_eq!(squares, ThreadPool::sequential().map_indexed(5, |i| i * i));
//! ```

use crate::sync::thread::{self, JoinHandle};
use crate::sync::{job_cell, mutation_enabled, AtomicBool, AtomicUsize, Condvar, Mutex};
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A type-erased job published to the workers: a pointer to a
/// stack-resident [`Task`] plus the monomorphized function that runs it.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    run: unsafe fn(*const ()),
}

// SAFETY: the pointer targets a `Task` pinned in the submitting
// `map_with_chunk` frame, which provably outlives every dereference: a
// worker joins a job only under the pool mutex (incrementing
// `in_flight`), and the submitter retracts the job and returns only
// after `in_flight` drains to zero. The `Task` itself is `Sync` data
// (atomics, mutexes, and a `Fn + Sync` closure reference).
#[allow(unsafe_code)]
unsafe impl Send for Job {}

/// The condvar-guarded handshake state between the submitter and the
/// parked workers.
struct JobState {
    /// Bumped once per published job so a worker never mistakes a new
    /// job for one it already ran.
    generation: u64,
    /// The currently published job, if any.
    job: Option<Job>,
    /// Workers currently inside the job (joined under the mutex, left
    /// under the mutex).
    in_flight: usize,
    /// Set once, on drop: parked workers exit instead of waiting.
    shutdown: bool,
}

/// State shared between the pool handle(s) and the worker threads.
struct Shared {
    state: Mutex<JobState>,
    /// Workers park here waiting for the next generation (or shutdown).
    start: Condvar,
    /// The submitter parks here waiting for `in_flight` to drain.
    done: Condvar,
    /// Lifetime count of worker threads ever spawned — the observable
    /// behind the zero-respawn probe: it never grows after `new`.
    spawned: AtomicUsize,
}

/// Owns the worker join handles; dropping the last pool clone shuts the
/// workers down and joins them. Kept separate from [`Shared`] because
/// the workers themselves hold `Arc<Shared>` clones — tying the handles'
/// lifetime to `Shared` would keep the pool alive forever.
struct Handles {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle>>,
}

impl Drop for Handles {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.shutdown = true;
        }
        // Mutation skip-shutdown-notify: set the flag but never wake
        // the parked workers — the model checker must report the join
        // below deadlocking on a stranded worker.
        if !mutation_enabled("skip-shutdown-notify") {
            self.shared.start.notify_all();
        }
        for handle in self.handles.lock().expect("handles poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// A fixed-size pool of **persistent** worker threads.
///
/// `new(threads)` spawns `threads - 1` long-lived workers (the calling
/// thread always participates as worker 0, so a 1-thread pool spawns
/// nothing and runs everything inline). Workers park on a condvar
/// between jobs; every [`ThreadPool::map_indexed`] call is a job
/// submission, not a spawn — the streaming hot loop re-enters the pool
/// thousands of times per second without creating a single thread.
///
/// Clones share the same workers; the workers shut down and join when
/// the last clone drops.
pub struct ThreadPool {
    threads: usize,
    shared: Arc<Shared>,
    _handles: Arc<Handles>,
}

impl ThreadPool {
    /// Creates a pool of `threads` workers, spawning its `threads - 1`
    /// persistent background workers immediately. The count is taken as
    /// given on any host: `new(8)` runs 8 threads on a 2-core machine.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, or if the OS refuses to spawn a
    /// worker thread.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                generation: 0,
                job: None,
                in_flight: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            spawned: AtomicUsize::new(0),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for w in 1..threads {
            let worker_shared = Arc::clone(&shared);
            let handle = thread::spawn_named(format!("omg-worker-{w}"), move || {
                worker_loop(&worker_shared)
            });
            shared.spawned.fetch_add(1, Ordering::SeqCst);
            handles.push(handle);
        }
        Self {
            threads,
            _handles: Arc::new(Handles {
                shared: Arc::clone(&shared),
                handles: Mutex::new(handles),
            }),
            shared,
        }
    }

    /// The single-threaded pool: every `map_indexed` call runs inline on
    /// the caller's thread, and no worker threads exist at all. Useful
    /// as a default and as the reference implementation the parallel
    /// path must match bit-for-bit.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The worker count (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total worker threads ever spawned by this pool — `threads - 1`
    /// at construction, and **never again**: repeated scoring calls
    /// re-use the same parked workers. The engine's zero-respawn probe
    /// asserts this stays flat across a streaming workload.
    pub fn spawned_workers(&self) -> usize {
        self.shared.spawned.load(Ordering::SeqCst)
    }

    /// Computes `f(0), f(1), …, f(n - 1)` across the pool's workers and
    /// returns the results **in index order**.
    ///
    /// Work is self-scheduled in contiguous chunks (an atomic cursor
    /// hands the next chunk to whichever worker is free), so uneven item
    /// costs balance across threads. `f` must be a pure function of the
    /// index for the output to be deterministic; all engine callers are.
    ///
    /// # Panics
    ///
    /// Panics if any invocation of `f` panics (the first panic is
    /// re-thrown on the calling thread after all workers leave the job;
    /// the pool itself stays usable).
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // Chunks ~4x the worker count balance load without shredding
        // cache locality; a chunk is never empty.
        self.map_with_chunk(n, n.div_ceil(self.threads * 4).max(1), f)
    }

    /// Like [`ThreadPool::map_indexed`], but each work unit is a single
    /// index: the atomic cursor hands out indices one at a time instead
    /// of contiguous chunks.
    ///
    /// Use this when each index is already a *coarse* unit of work — a
    /// whole session's backlog, a whole file — where per-item scheduling
    /// overhead is noise but a fat chunk would serialize several big
    /// units onto one worker (the per-window fan-out regression that
    /// motivated per-session work division). The output is still merged
    /// in index order.
    pub fn map_indexed_coarse<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_with_chunk(n, 1, f)
    }

    fn map_with_chunk<T, F>(&self, n: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n < 2 || n.div_ceil(chunk) < 2 {
            return (0..n).map(f).collect();
        }
        let n_chunks = n.div_ceil(chunk);
        let task: Task<T, F> = Task {
            cursor: AtomicUsize::new(0),
            n,
            chunk,
            f: &f,
            results: Mutex::new(Vec::with_capacity(n_chunks)),
            panic: Mutex::new(None),
            abort: AtomicBool::new(false),
        };
        let task_ptr = std::ptr::from_ref(&task).cast::<()>();
        // Model-only canary (zero-sized no-op in production): this
        // frame must not die — by return *or* unwind — while the job
        // is published or a worker is inside it.
        let _frame = job_cell::frame_guard(task_ptr);
        // PANIC: a poisoned pool lock means a worker already panicked;
        // propagating beats running the handshake on corrupt state.
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            if st.job.is_some() {
                // The pool is mid-job (a nested or concurrent submission):
                // run inline rather than corrupting the handshake.
                drop(st);
                return (0..n).map(f).collect();
            }
            st.generation += 1;
            st.job = Some(Job {
                data: task_ptr,
                run: run_task::<T, F>,
            });
            job_cell::publish(task_ptr);
        }
        self.shared.start.notify_all();
        // The caller is worker 0: it drains chunks alongside the others
        // (and, on a busy machine, may well drain them all before a
        // worker wakes — which is exactly the cheap case).
        run_chunks(&task);
        // Mutation rethrow-before-drain: re-throw the panic while
        // workers may still be in the job — the frame canary must
        // report the drain violation as this frame unwinds.
        if mutation_enabled("rethrow-before-drain") {
            // PANIC: poisoning here implies a panic already in flight.
            if let Some(payload) = task.panic.lock().expect("panic slot poisoned").take() {
                std::panic::resume_unwind(payload);
            }
        }
        // Retract the job only after every joined worker has left it, so
        // no worker can observe `task` after this frame unwinds.
        // PANIC: poisoned pool state means a worker panicked outside
        // catch_unwind; the pool invariants are gone, so propagate.
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            while st.in_flight > 0 {
                // Mutation skip-drain-wait: retract without waiting for
                // the in-flight workers — the model checker must catch
                // the resulting use-after-retract / drain violation.
                if mutation_enabled("skip-drain-wait") {
                    break;
                }
                // PANIC: condvar wait re-acquires the poisoned lock.
                st = self.shared.done.wait(st).expect("pool state poisoned");
            }
            st.job = None;
            job_cell::retract(task_ptr);
        }
        // PANIC: both slots are poisoned only if a thread panicked while
        // holding them, and this path's job is to re-throw that panic.
        if let Some(payload) = task.panic.lock().expect("panic slot poisoned").take() {
            std::panic::resume_unwind(payload);
        }
        // Chunks arrive in completion order; restore global index order.
        // Starts are distinct, so the sort is total.
        let mut chunks = task.results.into_inner().expect("results poisoned");
        chunks.sort_unstable_by_key(|&(start, _)| start);
        debug_assert_eq!(chunks.iter().map(|(_, c)| c.len()).sum::<usize>(), n);
        chunks.into_iter().flat_map(|(_, c)| c).collect()
    }
}

/// The stack-resident state of one job, shared (borrowed) by every
/// thread that runs it.
struct Task<'f, T, F> {
    /// Next unclaimed index (chunks are `[cursor, cursor + chunk)`).
    cursor: AtomicUsize,
    n: usize,
    chunk: usize,
    f: &'f F,
    /// Completed `(start, items)` chunks, in completion order.
    results: Mutex<Vec<(usize, Vec<T>)>>,
    /// The first caught panic payload, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set on the first panic: no new chunks start.
    abort: AtomicBool,
}

/// Monomorphized job entry point: recovers the concrete [`Task`] from
/// the erased pointer and drains chunks. The `unsafe fn` contract is
/// the pool's drain handshake: callers must have joined the job under
/// the pool mutex so the submitter is obligated to keep `data`'s
/// target alive until they leave.
#[allow(unsafe_code)]
unsafe fn run_task<T, F>(data: *const ())
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Model hook (no-op in production): fail the schedule if this
    // worker is entering a retracted cell, and count it as inside the
    // frame until the matching `exit` below.
    job_cell::enter(data, "run_task");
    // SAFETY: `data` was created from a `&Task<T, F>` by the submitter
    // using exactly these type parameters, and the in-flight handshake
    // (see `Job`) keeps that task alive for the duration of this call —
    // the property the model checker exhausts schedules against.
    let task = unsafe { &*data.cast::<Task<'_, T, F>>() };
    run_chunks(task);
    job_cell::exit(data);
}

/// Claims and runs chunks until the cursor is exhausted (or the job
/// aborts after a panic). Shared by the submitting thread and the
/// workers, so both participate in the same self-scheduled queue.
fn run_chunks<T, F>(task: &Task<'_, T, F>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let task_ptr = std::ptr::from_ref(task).cast::<()>();
    loop {
        // Model hook (no-op in production): every trip through the
        // claim loop re-checks that the job has not been retracted out
        // from under this thread.
        job_cell::assert_live(task_ptr, "run_chunks");
        // Relaxed: advisory abort flag — a stale `false` only costs one
        // extra chunk of already-doomed work; the panic payload itself
        // travels through the `panic` mutex. (Audited: see omg-lint's
        // relaxed-orderings ledger.)
        if task.abort.load(Ordering::Relaxed) {
            break;
        }
        // Relaxed: chunk claims need the RMW's atomicity, not ordering —
        // claimed indices are data-independent, and all result/panic
        // data transfers are mutex-protected. (Audited: see omg-lint's
        // relaxed-orderings ledger.)
        let start = if mutation_enabled("torn-cursor-claim") {
            // Mutation: tear the claim into a load + store, the classic
            // lost-update race — some schedule runs a chunk twice.
            let seen = task.cursor.load(Ordering::Relaxed);
            task.cursor.store(seen + task.chunk, Ordering::Relaxed);
            seen
        } else {
            task.cursor.fetch_add(task.chunk, Ordering::Relaxed)
        };
        if start >= task.n {
            break;
        }
        let end = (start + task.chunk).min(task.n);
        let f = task.f;
        // PANIC: results-lock poisoning implies another worker panicked
        // holding it; the job is already doomed, so propagate.
        match std::panic::catch_unwind(AssertUnwindSafe(|| (start..end).map(f).collect::<Vec<T>>()))
        {
            Ok(items) => task
                .results
                .lock()
                .expect("results poisoned")
                .push((start, items)),
            Err(payload) => {
                // Relaxed: see the abort load above — advisory only.
                // (Audited: see omg-lint's relaxed-orderings ledger.)
                // PANIC: same poisoning argument for the panic slot.
                task.abort.store(true, Ordering::Relaxed);
                let mut slot = task.panic.lock().expect("panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
                break;
            }
        }
    }
}

/// What each persistent worker runs: park until a new job generation is
/// published, join it, drain chunks, leave it, park again — until
/// shutdown.
fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            // PANIC: poisoned pool state means another thread panicked
            // mid-handshake; a worker cannot recover it, so propagate.
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    if let Some(job) = st.job {
                        // Join the job under the mutex: from here the
                        // submitter is obligated to wait for us.
                        st.in_flight += 1;
                        break job;
                    }
                    // The job was already retracted; nothing to do.
                }
                // PANIC: condvar wait re-acquires the poisoned lock.
                st = shared.start.wait(st).expect("pool state poisoned");
            }
        };
        #[allow(unsafe_code)]
        // SAFETY: joined under the mutex above, so the submitter keeps
        // the task alive until we report back.
        unsafe {
            (job.run)(job.data)
        };
        // PANIC: same poisoning argument when leaving the job.
        let mut st = shared.state.lock().expect("pool state poisoned");
        st.in_flight -= 1;
        // Mutation skip-done-notify: leave without waking the draining
        // submitter — the model checker must report the lost wakeup as
        // a deadlock.
        if st.in_flight == 0 && !mutation_enabled("skip-done-notify") {
            // Only the submitter ever waits on `done`.
            shared.done.notify_all();
        }
    }
}

impl Clone for ThreadPool {
    fn clone(&self) -> Self {
        Self {
            threads: self.threads,
            shared: Arc::clone(&self.shared),
            _handles: Arc::clone(&self._handles),
        }
    }
}

/// Pools compare by worker count: two pools of the same size are
/// interchangeable (their outputs are bit-for-bit identical for pure
/// closures), whether or not they share workers.
impl PartialEq for ThreadPool {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for ThreadPool {}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("spawned_workers", &self.spawned_workers())
            .finish()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ThreadPool::new(0);
    }

    #[test]
    fn sequential_and_default_are_one_thread() {
        assert_eq!(ThreadPool::sequential().threads(), 1);
        assert_eq!(ThreadPool::default(), ThreadPool::sequential());
        assert_eq!(ThreadPool::sequential().spawned_workers(), 0);
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            for n in [0, 1, 2, 7, 64, 1000] {
                let got = pool.map_indexed(n, |i| 3 * i + 1);
                let want: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
                assert_eq!(got, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn uneven_work_still_merges_in_order() {
        // Early indices are much more expensive than late ones, so chunk
        // completion order differs wildly from index order.
        let pool = ThreadPool::new(4);
        let got = pool.map_indexed(200, |i| {
            let spins = if i < 10 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        assert_eq!(got.len(), 200);
        for (idx, &(i, _)) in got.iter().enumerate() {
            assert_eq!(i, idx);
        }
    }

    #[test]
    fn more_threads_than_items() {
        let pool = ThreadPool::new(16);
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn coarse_map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            for n in [0, 1, 2, 7, 64] {
                let got = pool.map_indexed_coarse(n, |i| 5 * i + 2);
                let want: Vec<usize> = (0..n).map(|i| 5 * i + 2).collect();
                assert_eq!(got, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn coarse_map_runs_every_index_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let pool = ThreadPool::new(8);
        pool.map_indexed_coarse(runs.len(), |i| runs[i].fetch_add(1, Ordering::SeqCst));
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(8, |i| {
                assert!(i != 5, "boom at 5");
                i
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // The persistent-pool contract: a panicking job is aborted and
        // re-thrown, but the parked workers survive and the next job on
        // the *same* pool runs normally — no respawn, no deadlock.
        let pool = ThreadPool::new(4);
        for round in 0..3 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map_indexed(64, |i| {
                    assert!(i != 40, "boom at 40 (round {round})");
                    i
                })
            }));
            assert!(result.is_err(), "round {round} must propagate the panic");
            let got = pool.map_indexed(64, |i| i * 2);
            assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        }
        assert_eq!(pool.spawned_workers(), 3, "no worker was ever respawned");
    }

    #[test]
    fn workers_join_cleanly_on_drop() {
        // Dropping the pool (and every clone) must shut the parked
        // workers down and join them without deadlock — including right
        // after jobs, after a panicked job, and for a never-used pool.
        let pool = ThreadPool::new(4);
        pool.map_indexed(100, |i| i);
        let clone = pool.clone();
        drop(pool);
        // The clone still works: workers only shut down with the last
        // handle.
        assert_eq!(clone.map_indexed(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        drop(clone);

        let panicked = ThreadPool::new(3);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            panicked.map_indexed(32, |i| {
                assert!(i != 30);
                i
            })
        }));
        drop(panicked);

        drop(ThreadPool::new(5));
    }

    #[test]
    fn workers_are_spawned_once_and_reused() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.spawned_workers(), 3);
        for _ in 0..50 {
            let _ = pool.map_indexed(257, |i| i as u64 * 3);
        }
        assert_eq!(
            pool.spawned_workers(),
            3,
            "map_indexed must submit jobs, not spawn threads"
        );
    }

    #[test]
    fn nested_submission_runs_inline() {
        // A closure that re-enters the same pool must not corrupt the
        // job handshake: the nested call runs inline and stays correct.
        let pool = ThreadPool::new(2);
        let pool2 = pool.clone();
        let got = pool.map_indexed(6, move |i| {
            pool2.map_indexed(4, |j| i * j).iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..6).map(|i| (0..4).map(|j| i * j).sum()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn borrows_non_static_data() {
        let data = [10, 20, 30, 40];
        let pool = ThreadPool::new(2);
        let doubled = pool.map_indexed(data.len(), |i| data[i] * 2);
        assert_eq!(doubled, vec![20, 40, 60, 80]);
    }

    #[test]
    fn one_thread_pool_is_fully_inline() {
        // threads == 1 must never publish a job: no workers exist to
        // run one, and the inline path must cover every size.
        let pool = ThreadPool::new(1);
        assert_eq!(pool.spawned_workers(), 0);
        for n in [0, 1, 2, 3, 100] {
            let got = pool.map_indexed(n, |i| i * 7);
            assert_eq!(got, (0..n).map(|i| i * 7).collect::<Vec<_>>(), "n={n}");
        }
        assert_eq!(pool.map_indexed_coarse(3, |i| i), vec![0, 1, 2]);
        assert_eq!(pool.spawned_workers(), 0, "inline path must stay inline");
    }

    #[test]
    fn empty_map_on_parallel_pool_publishes_nothing() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(
            pool.map_indexed_coarse(0, |_| unreachable!() as usize),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn drop_immediately_after_panicked_job() {
        // The hardest drop ordering: the very first job panics, and the
        // pool is dropped with no intervening successful job — shutdown
        // must still join every worker.
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed_coarse(8, |i| {
                assert!(i != 3, "boom at 3");
                i
            })
        }));
        assert!(result.is_err());
        drop(pool);
    }

    #[test]
    fn nested_map_indexed_from_a_job_closure() {
        // Two levels of nesting from inside a running job: every inner
        // call sees the cell occupied and runs inline, at any depth.
        let pool = ThreadPool::new(3);
        let inner = pool.clone();
        let got = pool.map_indexed(4, move |i| {
            let innermost = inner.clone();
            inner
                .map_indexed(3, move |j| {
                    innermost
                        .map_indexed(2, |k| i + j + k)
                        .iter()
                        .sum::<usize>()
                })
                .iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = (0..4)
            .map(|i| {
                (0..3)
                    .map(|j| (0..2).map(|k| i + j + k).sum::<usize>())
                    .sum()
            })
            .collect();
        assert_eq!(got, want);
    }
}
