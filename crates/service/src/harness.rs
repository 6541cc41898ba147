//! The type-erased runtime face of a scenario's monitor service.
//!
//! Mirrors [`omg_scenario::DynScenario`]: binding a [`Scenario`] + model
//! into a [`ServiceHarness`] erases the associated types behind
//! [`DynService`], so the conformance suite, the soak benchmark, and any
//! multi-tenant driver iterate heterogeneous services behind one object
//! — a new scenario is service-tested by construction.

use std::sync::OnceLock;

use omg_core::runtime::ThreadPool;
use omg_scenario::{stream_score_scenario, Scenario, Scores};

use crate::{IngestError, MonitorService, ServiceConfig, SessionId};

/// The type-erased face of one scenario's [`MonitorService`], driving it
/// through the scenario's **precomputed model output stream**: callers
/// ingest stream *positions* and the harness feeds the item at that
/// position, so tests and benchmarks replay any slice of the deployment
/// stream into any session.
pub trait DynService: Send + Sync {
    /// The scenario's short stable identifier.
    fn name(&self) -> &'static str;

    /// Number of positions in the precomputed item stream.
    fn stream_len(&self) -> usize;

    /// Items of temporal context on each side of a window's center.
    fn window_half(&self) -> usize;

    /// Assertion names, in severity-vector dimension order.
    fn assertion_names(&self) -> Vec<String>;

    /// Opens a session explicitly.
    fn open(&self, session: SessionId);

    /// Offers stream position `position`'s item to a session.
    ///
    /// # Errors
    ///
    /// [`IngestError::QueueFull`] when the session's queue is at
    /// capacity (the item is not accepted; retry after a drain).
    fn try_ingest_position(&self, session: SessionId, position: usize) -> Result<(), IngestError>;

    /// Drains all sessions across the pool's workers; returns windows
    /// scored.
    fn drain(&self, pool: &ThreadPool) -> usize;

    /// Takes a session's undelivered outputs (see
    /// [`MonitorService::poll`]).
    fn poll(&self, session: SessionId) -> Option<Scores>;

    /// Finishes a session, flushing its tail windows; returns its final
    /// undelivered outputs.
    fn finish(&self, session: SessionId) -> Option<Scores>;

    /// The sequential single-stream reference for `len` positions
    /// starting at `start`: what a session fed exactly those positions
    /// must produce **bit-for-bit**.
    fn sequential_reference(&self, start: usize, len: usize) -> Scores;

    /// Number of open sessions.
    fn sessions(&self) -> usize;

    /// Items queued (accepted, unscored) across all sessions.
    fn queued(&self) -> usize;

    /// Database rows resident across all sessions.
    fn resident_records(&self) -> usize;

    /// Items accepted over the service's lifetime.
    fn accepted(&self) -> usize;

    /// Windows scored over the service's lifetime.
    fn scored(&self) -> usize;

    /// Evicts idle sessions (no-op unless configured); returns evicted
    /// ids.
    fn evict_idle(&self) -> Vec<SessionId>;
}

/// Binds a [`Scenario`] + pretrained model to a [`MonitorService`],
/// erasing the associated types behind [`DynService`].
pub struct ServiceHarness<Sc: Scenario> {
    service: MonitorService<Sc>,
    model: Sc::Model,
    /// The model's pass over the pool, computed on first use and shared
    /// by every session and the sequential reference.
    items: OnceLock<Vec<Sc::Item>>,
}

impl<Sc: Scenario + 'static> ServiceHarness<Sc> {
    /// Binds scenario, model, and config into a ready service.
    pub fn new(scenario: Sc, model: Sc::Model, config: ServiceConfig) -> Self {
        Self {
            service: MonitorService::new(scenario, config),
            model,
            items: OnceLock::new(),
        }
    }

    /// Boxes the harness as a registry entry.
    pub fn boxed(scenario: Sc, model: Sc::Model, config: ServiceConfig) -> Box<dyn DynService> {
        Box::new(Self::new(scenario, model, config))
    }

    /// The underlying typed service.
    pub fn service(&self) -> &MonitorService<Sc> {
        &self.service
    }

    fn items(&self) -> &[Sc::Item] {
        self.items
            .get_or_init(|| self.service.scenario().run_model(&self.model))
    }
}

impl<Sc: Scenario + 'static> DynService for ServiceHarness<Sc> {
    fn name(&self) -> &'static str {
        self.service.scenario().name()
    }

    fn stream_len(&self) -> usize {
        self.items().len()
    }

    fn window_half(&self) -> usize {
        self.service.scenario().window_half()
    }

    fn assertion_names(&self) -> Vec<String> {
        self.service
            .assertion_set()
            .names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    fn open(&self, session: SessionId) {
        self.service.open(session);
    }

    fn try_ingest_position(&self, session: SessionId, position: usize) -> Result<(), IngestError> {
        let item = self.items()[position].clone();
        self.service.try_ingest(session, item)
    }

    fn drain(&self, pool: &ThreadPool) -> usize {
        self.service.drain(pool)
    }

    fn poll(&self, session: SessionId) -> Option<Scores> {
        self.service.poll(session)
    }

    fn finish(&self, session: SessionId) -> Option<Scores> {
        self.service.finish(session).map(|report| report.scores)
    }

    fn sequential_reference(&self, start: usize, len: usize) -> Scores {
        let items = &self.items()[start..start + len];
        stream_score_scenario(
            self.service.scenario(),
            self.service.assertion_set(),
            self.service.preparer(),
            items,
            &ThreadPool::sequential(),
        )
    }

    fn sessions(&self) -> usize {
        self.service.sessions()
    }

    fn queued(&self) -> usize {
        self.service.queued()
    }

    fn resident_records(&self) -> usize {
        self.service.resident_records()
    }

    fn accepted(&self) -> usize {
        self.service.accepted()
    }

    fn scored(&self) -> usize {
        self.service.scored()
    }

    fn evict_idle(&self) -> Vec<SessionId> {
        self.service.evict_idle()
    }
}
