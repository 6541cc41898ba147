//! The multi-tenant monitor: session-keyed shards over the streaming
//! engine.
//!
//! One [`MonitorService`] serves many concurrent sessions of **one**
//! scenario. The expensive scenario resources — the prepared assertion
//! set and its preparer — are built once per service and read by every
//! session, so opening a session is O(1) allocation, not O(set).
//! Each session owns a [`SessionShard`]-worth of private state: one
//! buffer holding the live suffix of its item stream, which accepts at
//! most `queue_capacity` items between drains (backpressure, not
//! unbounded growth), an [`AssertionDb`] with optional retention, and
//! the not-yet-polled score outputs. Windows are cut from the buffer in
//! place by [`clamped_window`], the same cut the scenario drivers use.
//!
//! Work divides at **session granularity**: a drain pass hands whole
//! sessions to pool workers ([`ThreadPool::map_indexed_coarse`]), so a
//! worker scores a session's entire backlog with warm caches and zero
//! cross-worker window sharing.
//!
//! Determinism: a session's outputs depend only on the items ingested
//! into that session, in order. Drains may interleave sessions any way
//! the scheduler likes; the per-session output sequence is bit-for-bit
//! the sequential [`omg_scenario::stream_score_scenario`] run of the
//! same items (the conformance suite enforces this for every registered
//! scenario at 1/2/8 workers).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use omg_core::runtime::ThreadPool;
use omg_core::stream::Prepare;
use omg_core::{AssertionDb, AssertionSet, SeverityMatrix};
use omg_scenario::{clamped_window, score_window, Scenario, Scores};

use crate::SyncMap;

/// Identifies one monitoring session (one deployed stream) of a
/// service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Why an ingest was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The session's bounded queue is at capacity; the item was **not**
    /// accepted and nothing already accepted was dropped. Drain the
    /// service (or poll less often) and retry.
    QueueFull {
        /// The session whose queue is full.
        session: SessionId,
        /// The configured per-session queue capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IngestError::QueueFull { session, capacity } => {
                write!(f, "{session}: ingest queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Tuning knobs for a [`MonitorService`].
///
/// The fields are private, so every setting goes through the builder
/// that checks it ([`with_queue_capacity`](Self::with_queue_capacity),
/// [`with_retention`](Self::with_retention),
/// [`with_idle_eviction`](Self::with_idle_eviction)). A struct literal
/// that would skip those checks does not compile:
///
/// ```compile_fail
/// use omg_service::ServiceConfig;
///
/// let config = ServiceConfig {
///     idle_ticks: Some(0),
///     ..ServiceConfig::default()
/// };
/// ```
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum items a session may have queued (accepted since its last
    /// drain) before [`MonitorService::try_ingest`] pushes back with
    /// [`IngestError::QueueFull`]. At least one.
    queue_capacity: usize,
    /// Per-session [`AssertionDb`] retention: keep at most this many
    /// recent sample rows resident (lifetime fire counters survive —
    /// see [`AssertionDb::retain_recent`]). `None` retains everything;
    /// a cap is at least one.
    retained_samples: Option<usize>,
    /// Evict a session after this many drain passes with no ingest,
    /// once its queue is drained and its outputs polled. `None` never
    /// evicts; a count is at least one.
    idle_ticks: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            retained_samples: None,
            idle_ticks: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the per-session queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must accept at least one item");
        self.queue_capacity = capacity;
        self
    }

    /// Caps each session's resident database at `keep` recent samples.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero.
    #[must_use]
    pub fn with_retention(mut self, keep: usize) -> Self {
        assert!(keep > 0, "retention cap must keep at least one sample");
        self.retained_samples = Some(keep);
        self
    }

    /// Evicts sessions idle for `ticks` consecutive drain passes.
    ///
    /// # Panics
    ///
    /// Panics if `ticks` is zero: a session idle for zero passes would
    /// be evicted by the very drain that scored its items, taking the
    /// items still waiting for their lookahead with it.
    #[must_use]
    pub fn with_idle_eviction(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "idle eviction must wait at least one drain pass");
        self.idle_ticks = Some(ticks);
        self
    }
}

/// Everything a scored window of a session updates: its assertion
/// database and the outputs not yet delivered to a `poll`.
struct SessionLog {
    /// The session's assertion database (optionally retention-capped).
    db: AssertionDb,
    /// Per-session retention cap (see [`ServiceConfig::with_retention`]).
    retained: Option<usize>,
    /// Scored severity rows not yet delivered to a `poll`, columnar.
    severities: SeverityMatrix,
    /// Scored uncertainties not yet delivered to a `poll`.
    uncertainties: Vec<f64>,
    /// Windows scored over the session's lifetime.
    scored: usize,
}

impl SessionLog {
    /// Commits one scored window: records its row in the database,
    /// applies the retention cap, and queues the row and its uncertainty
    /// for delivery.
    fn commit_window(&mut self, index: usize, values: &[f64], uncertainty: f64) {
        self.db.record_row(index, values);
        if let Some(keep) = self.retained {
            self.db.retain_recent(keep);
        }
        self.severities.push_row(values);
        self.uncertainties.push(uncertainty);
        self.scored += 1;
    }

    /// Takes the undelivered outputs, leaving the buffers empty.
    fn take_scores(&mut self) -> Scores {
        (
            std::mem::take(&mut self.severities),
            std::mem::take(&mut self.uncertainties),
        )
    }
}

/// One session's private monitoring state.
struct SessionShard<Sc: Scenario> {
    /// The session's stream from position `base` on: the items of every
    /// center not yet scored, plus the `window_half` items before them
    /// that those centers' windows still read.
    items: Vec<Sc::Item>,
    /// Stream position of `items[0]`.
    base: usize,
    /// Items accepted since the last drain (bounded by the config's
    /// capacity).
    queued: usize,
    /// The reusable dense severity row for `score_window`.
    values: Vec<f64>,
    /// The session's database and undelivered outputs.
    log: SessionLog,
    /// Drain-clock value of the last ingest (drives idle eviction).
    last_active: u64,
    /// Items accepted over the session's lifetime.
    accepted: usize,
}

impl<Sc: Scenario> SessionShard<Sc> {
    fn new(retained: Option<usize>, now: u64) -> Self {
        Self {
            items: Vec::new(),
            base: 0,
            queued: 0,
            values: Vec::new(),
            log: SessionLog {
                db: AssertionDb::new(),
                retained,
                severities: SeverityMatrix::new(),
                uncertainties: Vec::new(),
                scored: 0,
            },
            last_active: now,
            accepted: 0,
        }
    }
}

/// A summary returned when a session is finished and torn down.
#[derive(Debug)]
pub struct SessionReport {
    /// The finished session.
    pub session: SessionId,
    /// Outputs scored since the last poll, including the flushed
    /// right-edge tail windows.
    pub scores: Scores,
    /// The session's assertion database (retention applied).
    pub db: AssertionDb,
    /// Items accepted over the session's lifetime.
    pub accepted: usize,
    /// Windows scored over the session's lifetime (equals `accepted`
    /// once finished: every position's window is flushed).
    pub scored: usize,
}

/// A long-lived multi-tenant monitor for one scenario.
///
/// See the [crate docs](crate) for the architecture.
pub struct MonitorService<Sc: Scenario> {
    scenario: Sc,
    set: AssertionSet<Sc::Sample, Sc::Prep>,
    preparer: Box<dyn Prepare<Sc::Sample, Prepared = Sc::Prep>>,
    config: ServiceConfig,
    shards: SyncMap<SessionId, Mutex<SessionShard<Sc>>>,
    /// Monotonic drain counter — the service's notion of time.
    clock: AtomicU64,
    accepted_total: AtomicUsize,
    scored_total: AtomicUsize,
}

impl<Sc: Scenario> MonitorService<Sc> {
    /// Builds a service around a scenario, constructing once the
    /// prepared assertion set and preparer that every session shares.
    pub fn new(scenario: Sc, config: ServiceConfig) -> Self {
        Self {
            set: scenario.prepared_set(),
            preparer: scenario.preparer(),
            scenario,
            config,
            shards: SyncMap::new(),
            clock: AtomicU64::new(0),
            accepted_total: AtomicUsize::new(0),
            scored_total: AtomicUsize::new(0),
        }
    }

    /// The scenario this service monitors.
    pub fn scenario(&self) -> &Sc {
        &self.scenario
    }

    /// The shared prepared assertion set.
    pub fn assertion_set(&self) -> &AssertionSet<Sc::Sample, Sc::Prep> {
        &self.set
    }

    /// The shared preparer.
    pub fn preparer(&self) -> &(dyn Prepare<Sc::Sample, Prepared = Sc::Prep> + '_) {
        self.preparer.as_ref()
    }

    fn shard(&self, session: SessionId) -> Arc<Mutex<SessionShard<Sc>>> {
        let retained = self.config.retained_samples;
        let now = self.clock.load(Ordering::Relaxed);
        self.shards
            .get_or_init(session, || Mutex::new(SessionShard::new(retained, now)))
    }

    /// Opens a session explicitly (ingest opens implicitly; this exists
    /// so a tenant can pre-register before traffic arrives).
    pub fn open(&self, session: SessionId) {
        let _ = self.shard(session);
    }

    /// Offers one item to a session, opening it on first touch.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::QueueFull`] — without accepting the item
    /// or disturbing anything already accepted — when the session's
    /// bounded queue is at capacity. The caller applies backpressure
    /// upstream and retries after a [`MonitorService::drain`].
    pub fn try_ingest(&self, session: SessionId, item: Sc::Item) -> Result<(), IngestError> {
        let shard = self.shard(session);
        let mut shard = shard.lock().expect("shard poisoned");
        if shard.queued >= self.config.queue_capacity {
            return Err(IngestError::QueueFull {
                session,
                capacity: self.config.queue_capacity,
            });
        }
        shard.items.push(item);
        shard.queued += 1;
        shard.accepted += 1;
        shard.last_active = self.clock.load(Ordering::Relaxed);
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Scores one shard's backlog — the coarse per-session work unit a
    /// drain pass hands to a pool worker — and returns the number of
    /// windows scored. Centers are scored in stream order, each over
    /// its clamped window cut from the shard's buffer: every center
    /// whose `window_half` lookahead is in, or, `to_end`, every center
    /// left (the right edge clamps). The items no later window reads
    /// are then dropped, so at most `2 * window_half` stay buffered.
    fn drain_shard(&self, shard: &mut SessionShard<Sc>, to_end: bool) -> usize {
        let half = self.scenario.window_half();
        let SessionShard {
            items,
            base,
            queued,
            values,
            log,
            accepted,
            ..
        } = shard;
        let end = if to_end {
            *accepted
        } else {
            accepted.saturating_sub(half)
        };
        let before = log.scored;
        for c in before..end {
            let (window, center) = clamped_window(items, c - *base, half);
            let unc = score_window(
                &self.scenario,
                &self.set,
                &*self.preparer,
                window,
                center,
                values,
            );
            log.commit_window(c, values, unc);
        }
        let keep = log.scored.saturating_sub(half);
        items.drain(..keep - *base);
        *base = keep;
        *queued = 0;
        log.scored - before
    }

    /// Drains every session's queue: whole sessions fan out across the
    /// pool's workers (coarse work division — see the module docs), and
    /// each worker scores its session's backlog in ingest order.
    /// Returns the number of windows scored; runs idle eviction if the
    /// config enables it.
    pub fn drain(&self, pool: &ThreadPool) -> usize {
        self.clock.fetch_add(1, Ordering::Relaxed);
        let shards = self.shards.entries();
        let scored: usize = pool
            // PANIC: i < shards.len() by map_indexed_coarse's contract;
            // a poisoned shard means a scorer panicked mid-drain, so
            // the shard state is unusable — propagate.
            .map_indexed_coarse(shards.len(), |i| {
                let mut shard = shards[i].1.lock().expect("shard poisoned");
                self.drain_shard(&mut shard, false)
            })
            .into_iter()
            .sum();
        self.scored_total.fetch_add(scored, Ordering::Relaxed);
        if self.config.idle_ticks.is_some() {
            self.evict_idle();
        }
        scored
    }

    /// Takes a session's scored-but-undelivered outputs (severity rows
    /// and uncertainties, in stream order), leaving its buffers empty —
    /// delivery is what keeps a long-lived session's memory flat.
    /// `None` if the session does not exist.
    pub fn poll(&self, session: SessionId) -> Option<Scores> {
        let shard = self.shards.get(&session)?;
        let mut shard = shard.lock().expect("shard poisoned");
        Some(shard.log.take_scores())
    }

    /// Finishes a session: scores every window it has left, the
    /// right-edge tail windows included (every accepted position ends
    /// up scored), removes the shard, and returns the final report.
    /// `None` if the session does not exist. The session id is free
    /// again afterwards: ingesting into it opens a fresh stream.
    pub fn finish(&self, session: SessionId) -> Option<SessionReport> {
        let shard = self.shards.remove(&session)?;
        // PANIC: poisoning propagation — the drain already panicked.
        let mut shard = shard.lock().expect("shard poisoned");
        let scored = self.drain_shard(&mut shard, true);
        self.scored_total.fetch_add(scored, Ordering::Relaxed);
        let SessionShard { log, accepted, .. } = &mut *shard;
        Some(SessionReport {
            session,
            scores: log.take_scores(),
            db: std::mem::take(&mut log.db),
            accepted: *accepted,
            scored: log.scored,
        })
    }

    /// Evicts sessions idle for at least the configured `idle_ticks`
    /// drain passes, returning the evicted ids. A session is only
    /// evictable once its queue is drained and its outputs polled —
    /// accepted items and undelivered scores are **never** dropped;
    /// un-emitted lookahead windows of an abandoned stream are (a
    /// session that wants its tail flushed calls
    /// [`MonitorService::finish`]). No-op when the config disables
    /// eviction.
    pub fn evict_idle(&self) -> Vec<SessionId> {
        let Some(idle) = self.config.idle_ticks else {
            return Vec::new();
        };
        let now = self.clock.load(Ordering::Relaxed);
        let cutoff = now.saturating_sub(idle);
        self.shards
            .retain(|_, shard| {
                // PANIC: poisoning propagation, as in drain/finish.
                let s = shard.lock().expect("shard poisoned");
                let drained = s.queued == 0 && s.log.severities.is_empty();
                !(drained && s.last_active < cutoff)
            })
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of open sessions.
    pub fn sessions(&self) -> usize {
        self.shards.len()
    }

    /// Items queued across all sessions: those accepted since each
    /// session's last drain, which the queue capacity bounds.
    pub fn queued(&self) -> usize {
        self.shards
            .entries()
            .iter()
            .map(|(_, s)| s.lock().expect("shard poisoned").queued)
            .sum()
    }

    /// Database rows currently resident across all sessions — the
    /// number retention keeps flat under unbounded traffic.
    pub fn resident_records(&self) -> usize {
        self.shards
            .entries()
            .iter()
            .map(|(_, s)| s.lock().expect("shard poisoned").log.db.len())
            .sum()
    }

    /// Items accepted over the service's lifetime.
    pub fn accepted(&self) -> usize {
        self.accepted_total.load(Ordering::Relaxed)
    }

    /// Windows scored over the service's lifetime.
    pub fn scored(&self) -> usize {
        self.scored_total.load(Ordering::Relaxed)
    }

    /// A session's lifetime per-assertion fire counts (eviction does
    /// not forget them). `None` if the session does not exist.
    pub fn session_fire_counts(&self, session: SessionId) -> Option<Vec<usize>> {
        let shard = self.shards.get(&session)?;
        let shard = shard.lock().expect("shard poisoned");
        Some(shard.log.db.lifetime_fire_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Toy;

    /// However long a session's stream runs, after every drain its shard
    /// buffers only the `2 * window_half` items its next windows read.
    #[test]
    fn drained_shards_buffer_at_most_two_window_halves() {
        let n = 500;
        for half in [0usize, 1, 3] {
            let toy = Toy::new(n, half);
            let mut stream = toy.run_model(&()).into_iter().peekable();
            let svc = MonitorService::new(toy, ServiceConfig::default());
            let pool = ThreadPool::new(2);
            let session = SessionId(1);
            let (mut pushed, mut burst) = (0, 0);
            while stream.peek().is_some() {
                burst = burst % 5 + 1;
                for item in stream.by_ref().take(burst) {
                    svc.try_ingest(session, item)
                        .expect("default capacity is ample");
                    pushed += 1;
                }
                svc.drain(&pool);
                let shard = svc.shards.get(&session).expect("open session");
                let buffered = shard.lock().expect("shard poisoned").items.len();
                assert_eq!(
                    buffered,
                    pushed.min(2 * half),
                    "half={half} pushed={pushed}"
                );
            }
            let report = svc.finish(session).expect("open session");
            assert_eq!((report.accepted, report.scored), (n, n), "half={half}");
        }
    }

    /// A session's fire counts cover every window it has scored, rows
    /// that retention already evicted included; an unknown session and
    /// a finished one have none.
    #[test]
    fn session_fire_counts_include_evicted_rows() {
        let toy = Toy::new(40, 1);
        let mut stream = toy.run_model(&()).into_iter().peekable();
        let svc = MonitorService::new(toy, ServiceConfig::default().with_retention(2));
        let pool = ThreadPool::new(2);
        let session = SessionId(5);
        assert_eq!(svc.session_fire_counts(session), None, "unknown session");
        let mut fires = vec![0usize; svc.assertion_set().len()];
        let mut scored = 0;
        while stream.peek().is_some() {
            for item in stream.by_ref().take(7) {
                svc.try_ingest(session, item)
                    .expect("default capacity is ample");
            }
            svc.drain(&pool);
            let (rows, _) = svc.poll(session).expect("open session");
            for row in rows.iter_rows() {
                for (count, &v) in fires.iter_mut().zip(row) {
                    *count += usize::from(omg_core::Severity::new(v).fired());
                }
            }
            scored += rows.len();
            assert_eq!(
                svc.session_fire_counts(session).as_deref(),
                Some(&fires[..]),
                "after {scored} scored windows"
            );
        }
        assert!(fires.iter().all(|&f| f > 0), "every assertion fired");
        assert_eq!(
            svc.resident_records(),
            2 * fires.len(),
            "retention evicted all but two windows' rows"
        );
        svc.finish(session).expect("open session");
        assert_eq!(svc.session_fire_counts(session), None, "finished session");
    }

    #[test]
    #[should_panic(expected = "at least one drain pass")]
    fn zero_idle_eviction_rejected() {
        let _ = ServiceConfig::default().with_idle_eviction(0);
    }
}
