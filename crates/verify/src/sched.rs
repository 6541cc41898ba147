//! The DFS interleaving scheduler behind [`model`].
//!
//! Model threads are real OS threads, but only one ever runs at a time:
//! every visible operation calls back into [`Exec::schedule`], which
//! decides — by replaying a forced prefix, then by a deterministic
//! default policy — which thread holds the token next. Each decision is
//! a recorded **choice point**; after an execution completes, the
//! harness backtracks to the deepest choice point with an untried
//! alternative (within the preemption bound) and re-runs the closure
//! with that prefix forced. The search is therefore an exhaustive DFS
//! over schedules, exactly in the style of CHESS/loom, with failures
//! reported alongside the schedule that produced them.
//!
//! Failure handling is deliberately boring: the first failure on any
//! thread is recorded once, the harness is notified over a channel, and
//! every model thread that subsequently reaches the scheduler parks
//! forever. The failing execution's threads are *leaked* rather than
//! torn down — teardown would mean unwinding production code at
//! arbitrary points (and panicking inside `Drop` aborts); a handful of
//! parked threads on an already-failing test is the cheaper bill.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};

/// Exploration parameters for [`model_with`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum number of *preemptions* per schedule: switching away
    /// from a thread that could have continued costs one; switches at
    /// blocking points (lock unavailable, condvar wait, join) are free.
    /// Exploration is exhaustive within this bound.
    pub preemption_bound: usize,
    /// Per-execution step budget; exceeding it is reported as a
    /// livelock (with the schedule that spins).
    pub max_steps: usize,
    /// Safety valve on the number of explored schedules. If the search
    /// is cut off here, [`Report::exhausted`] is `false`.
    pub max_iterations: u64,
    /// Name of the seeded mutation to enable in the code under test
    /// (see `omg_verify::mutations`); `None` checks the real code.
    pub mutation: Option<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_steps: 20_000,
            max_iterations: 2_000_000,
            mutation: None,
        }
    }
}

/// What a completed [`model_with`] run explored.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub iterations: u64,
    /// `true` when the search space within the preemption bound was
    /// fully explored; `false` when `max_iterations` cut it off.
    pub exhausted: bool,
    /// Deepest schedule (in choice points) seen.
    pub max_depth: usize,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} schedules ({}, max depth {})",
            self.iterations,
            if self.exhausted {
                "exhausted"
            } else {
                "cut off"
            },
            self.max_depth
        )
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked,
    Finished,
}

#[derive(Clone, Copy)]
struct Step {
    thread: usize,
    op: &'static str,
}

/// One recorded scheduling decision.
struct ChoiceRec {
    enabled: Vec<usize>,
    chosen: usize,
    prev: usize,
    prev_enabled: bool,
    preempts_before: usize,
}

enum Outcome {
    Completed,
    Failed(String),
}

struct State {
    status: Vec<Status>,
    running: usize,
    finished: usize,
    steps: Vec<Step>,
    choices: Vec<ChoiceRec>,
    forced: Vec<usize>,
    preemptions: usize,
    failure: Option<String>,
    reported: bool,
    mutex_held: HashSet<usize>,
    mutex_waiters: HashMap<usize, Vec<usize>>,
    cv_waiters: HashMap<usize, Vec<usize>>,
    join_waiters: HashMap<usize, Vec<usize>>,
    jobs_live: HashSet<usize>,
    jobs_retracted: HashSet<usize>,
    /// Per-cell count of worker threads currently *inside* the job
    /// (between `job_enter` and `job_exit`).
    jobs_inside: HashMap<usize, usize>,
    real_handles: Vec<std::thread::JoinHandle<()>>,
}

/// One execution of the closure under one (partially forced) schedule.
pub(crate) struct Exec {
    pub(crate) cfg: Config,
    m: StdMutex<State>,
    cv: StdCondvar,
    tx: mpsc::Sender<Outcome>,
}

thread_local! {
    static EXEC_TLS: RefCell<Option<Arc<Exec>>> = const { RefCell::new(None) };
    static TID: Cell<usize> = const { Cell::new(usize::MAX) };
    static IN_MODEL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the calling model thread's execution, or panics with a
/// pointed message when called outside a [`model`] run.
pub(crate) fn with_exec<R>(f: impl FnOnce(&Arc<Exec>) -> R) -> R {
    EXEC_TLS.with(|e| {
        let borrow = e.borrow();
        let exec = borrow.as_ref().unwrap_or_else(|| {
            panic!(
                "omg-verify model primitive used outside a model() run \
                 (build without --cfg omg_model, or wrap the test body in \
                 omg_verify::model)"
            )
        });
        f(exec)
    })
}

/// True when the calling thread is inside a model execution. Used by
/// tolerant hooks (`mutations::enabled`) that must be no-ops outside.
pub(crate) fn in_model() -> bool {
    EXEC_TLS.with(|e| e.borrow().is_some())
}

fn cur_tid() -> usize {
    TID.with(Cell::get)
}

impl Exec {
    fn new(cfg: Config, forced: Vec<usize>, tx: mpsc::Sender<Outcome>) -> Self {
        Self {
            cfg,
            m: StdMutex::new(State {
                status: vec![Status::Runnable],
                running: 0,
                finished: 0,
                steps: Vec::new(),
                choices: Vec::new(),
                forced,
                preemptions: 0,
                failure: None,
                reported: false,
                mutex_held: HashSet::new(),
                mutex_waiters: HashMap::new(),
                cv_waiters: HashMap::new(),
                join_waiters: HashMap::new(),
                jobs_live: HashSet::new(),
                jobs_retracted: HashSet::new(),
                jobs_inside: HashMap::new(),
                real_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
            tx,
        }
    }

    fn lock_state(&self) -> StdMutexGuard<'_, State> {
        self.m
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Parks the calling thread for the rest of the (failed) execution.
    fn park_forever(&self, mut st: StdMutexGuard<'_, State>) -> ! {
        loop {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Records the failure (first one wins), notifies the harness, and
    /// wakes every parked thread so it can park on the failure flag.
    fn report_failure(&self, st: &mut State, msg: String) {
        if st.failure.is_none() {
            let full = format!("{msg}\n{}", render_trace(st));
            st.failure = Some(msg);
            if !st.reported {
                st.reported = true;
                let _ = self.tx.send(Outcome::Failed(full));
            }
        }
        self.cv.notify_all();
    }

    fn fail(&self, mut st: StdMutexGuard<'_, State>, msg: String) -> ! {
        self.report_failure(&mut st, msg);
        self.park_forever(st)
    }

    fn wait_for_turn(&self, mut st: StdMutexGuard<'_, State>, me: usize) {
        while st.running != me {
            if st.failure.is_some() {
                self.park_forever(st);
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The choice point: record the step, pick the next thread to run
    /// (forced prefix first, then the non-preemptive default), hand the
    /// token over, and — unless the caller is finished — wait for it to
    /// come back.
    fn schedule_inner(&self, op: &'static str, wait_for_token: bool) {
        let me = cur_tid();
        let mut st = self.lock_state();
        if st.failure.is_some() {
            if wait_for_token {
                self.park_forever(st);
            }
            return;
        }
        st.steps.push(Step { thread: me, op });
        if st.steps.len() > self.cfg.max_steps {
            let msg = format!(
                "livelock: still running after {} steps (op {op} on t{me})",
                self.cfg.max_steps
            );
            self.fail(st, msg);
        }
        debug_assert_eq!(st.running, me, "only the token holder schedules");
        let enabled: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            let msg = format!("deadlock: no runnable thread ({})", render_blocked(&st));
            self.fail(st, msg);
        }
        let prev_enabled = st.status[me] == Status::Runnable;
        let k = st.choices.len();
        let chosen = if k < st.forced.len() {
            let c = st.forced[k];
            if !enabled.contains(&c) {
                let msg = format!(
                    "schedule divergence: replay step {k} wants t{c} but enabled set is {enabled:?} \
                     (the code under test is nondeterministic beyond scheduling)"
                );
                self.fail(st, msg);
            }
            c
        } else if prev_enabled {
            me
        } else {
            enabled[0]
        };
        let preempts_before = st.preemptions;
        if prev_enabled && chosen != me {
            st.preemptions += 1;
        }
        st.choices.push(ChoiceRec {
            enabled,
            chosen,
            prev: me,
            prev_enabled,
            preempts_before,
        });
        if chosen != me {
            st.running = chosen;
            self.cv.notify_all();
            if wait_for_token {
                self.wait_for_turn(st, me);
            }
        }
    }

    /// A plain visible operation by a still-runnable thread.
    pub(crate) fn schedule(&self, op: &'static str) {
        self.schedule_inner(op, true);
    }

    // ---- model mutexes -------------------------------------------------

    pub(crate) fn mutex_acquire(&self, addr: usize) {
        self.schedule("mutex.lock");
        loop {
            let mut st = self.lock_state();
            if st.failure.is_some() {
                self.park_forever(st);
            }
            if st.mutex_held.insert(addr) {
                return;
            }
            let me = cur_tid();
            st.mutex_waiters.entry(addr).or_default().push(me);
            st.status[me] = Status::Blocked;
            drop(st);
            self.schedule_inner("mutex.lock.blocked", true);
        }
    }

    pub(crate) fn mutex_release(&self, addr: usize) {
        {
            let mut st = self.lock_state();
            st.mutex_held.remove(&addr);
            if let Some(waiters) = st.mutex_waiters.remove(&addr) {
                for w in waiters {
                    st.status[w] = Status::Runnable;
                }
            }
        }
        self.schedule_inner("mutex.unlock", true);
    }

    // ---- model condvars ------------------------------------------------

    /// Atomically releases `mutex_addr` and blocks on `cv_addr`. The
    /// caller re-locks the model mutex itself afterwards (modeling the
    /// post-notify reacquire race exactly).
    pub(crate) fn condvar_wait(&self, cv_addr: usize, mutex_addr: usize) {
        {
            let mut st = self.lock_state();
            st.mutex_held.remove(&mutex_addr);
            if let Some(waiters) = st.mutex_waiters.remove(&mutex_addr) {
                for w in waiters {
                    st.status[w] = Status::Runnable;
                }
            }
            let me = cur_tid();
            st.cv_waiters.entry(cv_addr).or_default().push(me);
            st.status[me] = Status::Blocked;
        }
        self.schedule_inner("condvar.wait", true);
    }

    pub(crate) fn condvar_notify(&self, cv_addr: usize) {
        self.schedule("condvar.notify_all");
        let mut st = self.lock_state();
        if let Some(waiters) = st.cv_waiters.remove(&cv_addr) {
            for w in waiters {
                st.status[w] = Status::Runnable;
            }
        }
    }

    // ---- model threads -------------------------------------------------

    pub(crate) fn spawn_model<F>(self: &Arc<Self>, f: F) -> usize
    where
        F: FnOnce() + Send + 'static,
    {
        self.schedule("thread.spawn");
        let tid = {
            let mut st = self.lock_state();
            st.status.push(Status::Runnable);
            st.status.len() - 1
        };
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("omg-model-{tid}"))
            .spawn(move || {
                IN_MODEL.with(|c| c.set(true));
                TID.with(|c| c.set(tid));
                EXEC_TLS.with(|e| *e.borrow_mut() = Some(Arc::clone(&exec)));
                {
                    let st = exec.lock_state();
                    exec.wait_for_turn(st, tid);
                }
                match std::panic::catch_unwind(AssertUnwindSafe(f)) {
                    Ok(()) => exec.finish_thread(),
                    // `as_ref()`: pass the payload itself, not the Box
                    // coerced into a fresh `dyn Any` (which would defeat
                    // the String downcast in the failure report).
                    Err(payload) => exec.thread_panicked(payload.as_ref()),
                }
            })
            .expect("spawn model thread");
        self.lock_state().real_handles.push(handle);
        tid
    }

    pub(crate) fn join_model(&self, target: usize) {
        self.schedule("thread.join");
        loop {
            let mut st = self.lock_state();
            if st.failure.is_some() {
                self.park_forever(st);
            }
            if st.status[target] == Status::Finished {
                return;
            }
            let me = cur_tid();
            st.join_waiters.entry(target).or_default().push(me);
            st.status[me] = Status::Blocked;
            drop(st);
            self.schedule_inner("thread.join.blocked", true);
        }
    }

    /// Normal completion of a model thread: mark finished, wake
    /// joiners, and either report completion (last thread out) or hand
    /// the token to a survivor.
    fn finish_thread(&self) {
        let me = cur_tid();
        {
            let mut st = self.lock_state();
            if st.failure.is_some() {
                return;
            }
            st.status[me] = Status::Finished;
            st.finished += 1;
            if let Some(joiners) = st.join_waiters.remove(&me) {
                for j in joiners {
                    st.status[j] = Status::Runnable;
                }
            }
            if st.finished == st.status.len() {
                if !st.reported {
                    st.reported = true;
                    let _ = self.tx.send(Outcome::Completed);
                }
                self.cv.notify_all();
                return;
            }
        }
        self.schedule_inner("thread.exit", false);
    }

    /// A panic that escaped a model thread's closure. Production pool
    /// code never lets one escape (worker panics are caught per chunk,
    /// and the pool suite's own test bodies catch what the submitter
    /// re-throws), so this is always a model failure.
    fn thread_panicked(&self, payload: &(dyn Any + Send)) {
        let me = cur_tid();
        let mut st = self.lock_state();
        if st.failure.is_some() {
            return;
        }
        let msg = payload_str(payload);
        self.report_failure(&mut st, format!("model thread t{me} panicked: {msg}"));
    }

    // ---- job-cell liveness registry ------------------------------------

    pub(crate) fn job_publish(&self, ptr: usize) {
        self.schedule("job.publish");
        let mut st = self.lock_state();
        st.jobs_retracted.remove(&ptr);
        st.jobs_live.insert(ptr);
    }

    pub(crate) fn job_retract(&self, ptr: usize) {
        self.schedule("job.retract");
        let mut st = self.lock_state();
        st.jobs_live.remove(&ptr);
        st.jobs_retracted.insert(ptr);
    }

    pub(crate) fn job_assert_live(&self, ptr: usize, what: &'static str) {
        self.schedule("job.deref");
        let st = self.lock_state();
        if st.jobs_retracted.contains(&ptr) {
            let msg = format!(
                "use-after-retract: {what} touched job cell {ptr:#x} after the submitter \
                 retracted it — the frame it points into may already be gone"
            );
            self.fail(st, msg);
        }
    }

    /// A worker entering the job (the production `run_task` entry):
    /// checks liveness, then counts the worker as inside the cell.
    pub(crate) fn job_enter(&self, ptr: usize, what: &'static str) {
        self.schedule("job.enter");
        let mut st = self.lock_state();
        if st.jobs_retracted.contains(&ptr) {
            let msg = format!(
                "use-after-retract: {what} entered job cell {ptr:#x} after the submitter \
                 retracted it — the frame it points into may already be gone"
            );
            self.fail(st, msg);
        }
        *st.jobs_inside.entry(ptr).or_insert(0) += 1;
    }

    /// The matching exit: the worker no longer holds a reference into
    /// the submitter's frame.
    pub(crate) fn job_exit(&self, ptr: usize) {
        self.schedule("job.exit");
        let mut st = self.lock_state();
        if let Some(count) = st.jobs_inside.get_mut(&ptr) {
            *count = count.saturating_sub(1);
        }
    }

    /// Called as the submitter's job frame dies (return *or* unwind;
    /// not a scheduling point — the frame is dying right now). If the
    /// job is still published, or a worker is still inside it, this is
    /// the drain-handshake violation that would be a stack
    /// use-after-free in production: report it and park the submitter
    /// *inside* the dying frame, which keeps the stack memory alive so
    /// the checker itself never touches freed memory.
    pub(crate) fn job_frame_check(&self, ptr: usize) {
        let st = self.lock_state();
        if st.failure.is_some() {
            self.park_forever(st);
        }
        let inside = st.jobs_inside.get(&ptr).copied().unwrap_or(0);
        if st.jobs_live.contains(&ptr) || inside > 0 {
            let msg = format!(
                "drain violation: the submitting frame for job cell {ptr:#x} died while \
                 {} — in production this frame's stack memory is gone while workers still \
                 point into it",
                if inside > 0 {
                    format!("{inside} worker(s) were still inside the job")
                } else {
                    "the job was still published".to_string()
                }
            );
            self.fail(st, msg);
        }
    }
}

fn payload_str(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn render_blocked(st: &State) -> String {
    let mut parts = Vec::new();
    for (addr, ws) in &st.mutex_waiters {
        parts.push(format!("{ws:?} on mutex {addr:#x}"));
    }
    for (addr, ws) in &st.cv_waiters {
        parts.push(format!("{ws:?} on condvar {addr:#x}"));
    }
    for (t, ws) in &st.join_waiters {
        parts.push(format!("{ws:?} joining t{t}"));
    }
    parts.sort();
    if parts.is_empty() {
        "no waiters registered".to_string()
    } else {
        parts.join("; ")
    }
}

/// The executed schedule, for replay-by-reading: every step as
/// `t<thread> <op>`, preemption count, and the chosen-thread digest.
fn render_trace(st: &State) -> String {
    const TAIL: usize = 120;
    let skipped = st.steps.len().saturating_sub(TAIL);
    let mut out = String::new();
    out.push_str(&format!(
        "schedule ({} steps, {} preemptions{}):\n",
        st.steps.len(),
        st.preemptions,
        if skipped > 0 {
            format!(", first {skipped} elided")
        } else {
            String::new()
        }
    ));
    for (i, s) in st.steps.iter().enumerate().skip(skipped) {
        out.push_str(&format!("  #{i:<4} t{} {}\n", s.thread, s.op));
    }
    out.push_str(&format!(
        "choices: {:?}",
        st.choices.iter().map(|c| c.chosen).collect::<Vec<_>>()
    ));
    out
}

// ---- DFS harness -------------------------------------------------------

struct Node {
    order: Vec<usize>,
    next: usize,
    chosen: usize,
    prev: usize,
    prev_enabled: bool,
    preempts_before: usize,
}

impl Node {
    fn from_rec(rec: &ChoiceRec) -> Self {
        let mut order = Vec::with_capacity(rec.enabled.len());
        if rec.prev_enabled {
            order.push(rec.prev);
        }
        for &t in &rec.enabled {
            if !(rec.prev_enabled && t == rec.prev) {
                order.push(t);
            }
        }
        let pos = order
            .iter()
            .position(|&t| t == rec.chosen)
            .expect("chosen thread was enabled");
        Self {
            order,
            next: pos + 1,
            chosen: rec.chosen,
            prev: rec.prev,
            prev_enabled: rec.prev_enabled,
            preempts_before: rec.preempts_before,
        }
    }
}

/// Advances the DFS frontier: finds the deepest choice point with an
/// untried alternative inside the preemption bound, returns the forced
/// prefix for the next execution, or `None` when the space is spent.
fn next_forced(tree: &mut Vec<Node>, bound: usize) -> Option<Vec<usize>> {
    loop {
        let k = tree.len().checked_sub(1)?;
        let node = &mut tree[k];
        let mut picked = None;
        while node.next < node.order.len() {
            let alt = node.order[node.next];
            node.next += 1;
            let cost = usize::from(node.prev_enabled && alt != node.prev);
            if node.preempts_before + cost <= bound {
                picked = Some(alt);
                break;
            }
        }
        match picked {
            Some(alt) => {
                node.chosen = alt;
                return Some(tree.iter().map(|n| n.chosen).collect());
            }
            None => {
                tree.pop();
            }
        }
    }
}

fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_MODEL.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Explores every interleaving of `f`'s model threads within
/// [`Config::preemption_bound`], panicking — with the failing schedule —
/// on the first invariant violation, deadlock, livelock, job-cell
/// use-after-retract, or escaped model-thread panic.
pub fn model_with<F>(cfg: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_panic_hook();
    let f = Arc::new(f);
    let mut tree: Vec<Node> = Vec::new();
    let mut forced: Vec<usize> = Vec::new();
    let mut iterations = 0u64;
    let mut max_depth = 0usize;
    loop {
        iterations += 1;
        let (tx, rx) = mpsc::channel();
        let exec = Arc::new(Exec::new(cfg.clone(), std::mem::take(&mut forced), tx));
        let main_exec = Arc::clone(&exec);
        let body = Arc::clone(&f);
        let main = std::thread::Builder::new()
            .name("omg-model-0".to_string())
            .spawn(move || {
                IN_MODEL.with(|c| c.set(true));
                TID.with(|c| c.set(0));
                EXEC_TLS.with(|e| *e.borrow_mut() = Some(Arc::clone(&main_exec)));
                match std::panic::catch_unwind(AssertUnwindSafe(|| body())) {
                    Ok(()) => main_exec.finish_thread(),
                    Err(payload) => main_exec.thread_panicked(payload.as_ref()),
                }
            })
            .expect("spawn model main thread");
        match rx.recv() {
            Ok(Outcome::Failed(msg)) => {
                // The failed execution's threads stay parked; report.
                panic!(
                    "omg-verify: model checking failed on schedule {iterations} \
                     (preemption bound {}): {msg}",
                    cfg.preemption_bound
                );
            }
            Ok(Outcome::Completed) | Err(_) => {
                let _ = main.join();
                let choices = {
                    let mut st = exec.lock_state();
                    for h in st.real_handles.drain(..) {
                        let _ = h.join();
                    }
                    std::mem::take(&mut st.choices)
                };
                max_depth = max_depth.max(choices.len());
                for (k, rec) in choices.iter().enumerate() {
                    if k >= tree.len() {
                        tree.push(Node::from_rec(rec));
                    } else {
                        debug_assert_eq!(
                            tree[k].chosen, rec.chosen,
                            "replayed prefix diverged at choice {k}"
                        );
                    }
                }
                tree.truncate(choices.len());
                match next_forced(&mut tree, cfg.preemption_bound) {
                    Some(next) => forced = next,
                    None => {
                        return Report {
                            iterations,
                            exhausted: true,
                            max_depth,
                        }
                    }
                }
                if iterations >= cfg.max_iterations {
                    return Report {
                        iterations,
                        exhausted: false,
                        max_depth,
                    };
                }
            }
        }
    }
}

/// [`model_with`] under the default [`Config`].
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(Config::default(), f)
}
