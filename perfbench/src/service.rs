//! The `service` workload: 64 night-street video sessions of
//! `omg-service`, first in an open loop at a fixed offered rate (alert
//! latency), then in a closed loop that offers until the queues are full
//! (capacity).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use omg_bench::video::{self, VideoScenario};
use omg_scenario::{Scores, ThreadPool};
use omg_service::{DynService, ServiceConfig, ServiceHarness, SessionId};

use crate::measure::{best, median, row_equal, sorted_quantile, LatencyHistogram, Trace};
use crate::stream::{self, Case, MODEL_SEED};
use crate::{Checked, Outcome, Run};

/// Concurrent sessions.
const SESSIONS: usize = 64;
/// Frames of video generated. Every session replays the stream up to its
/// end; a session that reaches the end is finished and replaced by a new
/// one that starts over at frame 0, so no session ever offers a position
/// past its stream.
///
/// The first session `s` opens at frame `s * STREAM_FRAMES / SESSIONS`,
/// so the sessions stay spread evenly over the stream and every round
/// scores the same mix of its windows. Sessions that start close together
/// score one short stretch of the stream per round, and the closed loop's
/// fastest rounds are then those on the cheapest stretch: with starts 37
/// frames apart, its rate ranged from 50k to 83k windows/s over ten seeds
/// on a 2-vCPU cloud VM, while per-window latency on the same stream
/// moved by 7%.
const STREAM_FRAMES: usize = 9_000;
/// Samples each session's database keeps resident.
const RETAINED: usize = 32;
/// The open loop's offered load, items per second over all sessions.
const STEADY_RATE: f64 = 30_000.0;
/// The open loop's per-session queue capacity.
const STEADY_QUEUE: usize = 1024;
/// The closed loop's per-session queue capacity.
const SATURATE_QUEUE: usize = 16;
/// The open loop's period: ingest what is due, drain, poll.
const TICK: Duration = Duration::from_millis(5);
/// Untimed stretch of each loop run before timing, which also verifies.
const WARM_UP: Duration = Duration::from_millis(300);

pub(crate) struct Setup {
    /// The open loop's service.
    steady: ServiceHarness<VideoScenario>,
    /// The closed loop's service: the same stream and model, a short queue.
    saturate: ServiceHarness<VideoScenario>,
    /// The sessions' video stream as a stream case, for traced replays;
    /// only built for them.
    case: Option<Box<dyn Case>>,
}

/// The `service` workload's state: one service per loop.
pub(crate) fn setup(seed: u64, trace: bool) -> Setup {
    let model = video::pretrained_detector(MODEL_SEED);
    let scenario = stream::video_stream(seed, STREAM_FRAMES);
    let service = |queue| {
        let config = ServiceConfig::default()
            .with_queue_capacity(queue)
            .with_retention(RETAINED);
        let svc = ServiceHarness::new(scenario.clone(), model.clone(), config);
        // The harness runs the model lazily; pay for it here.
        svc.stream_len();
        svc
    };
    Setup {
        steady: service(STEADY_QUEUE),
        saturate: service(SATURATE_QUEUE),
        case: trace.then(|| stream::case(scenario.clone(), &model)),
    }
}

/// The stream position the first session `s` opens at.
fn first_start(s: usize, len: usize) -> usize {
    s * len / SESSIONS
}

/// What every session must deliver: the sequential single-stream run of
/// the positions it was offered, assembled from one reference over the
/// whole stream plus the clamped windows at the session's two ends.
struct Expected {
    half: usize,
    /// Positions in the stream.
    len: usize,
    global: Scores,
    /// The left-edge windows of a session opened at `first_start(s)`;
    /// `heads[0]` (position 0) also serves every reopened session.
    heads: Vec<Scores>,
}

impl Expected {
    fn new(svc: &dyn DynService) -> Self {
        let half = svc.window_half();
        let edge = 2 * half + 1;
        let len = svc.stream_len();
        assert!(
            len - first_start(SESSIONS - 1, len) >= edge,
            "sessions shorter than one window"
        );
        Self {
            half,
            len,
            global: svc.sequential_reference(0, len),
            heads: (0..SESSIONS)
                .map(|s| svc.sequential_reference(first_start(s, len), edge))
                .collect(),
        }
    }

    /// Whether `row`/`unc` is `session`'s expected output at stream
    /// position `c`. Rows a poll delivers never reach the session's right
    /// edge; rows `finish` delivers do, and are checked against `tail`.
    fn matches(
        &self,
        session: &Session,
        c: usize,
        row: &[f64],
        unc: f64,
        tail: Option<&Tail>,
    ) -> bool {
        let (scores, i) = match tail {
            Some(t) if c + self.half >= t.end => {
                if c >= t.end {
                    return false;
                }
                (&t.scores, c - t.start)
            }
            _ if c + self.half >= self.len => return false,
            _ if c < session.start + self.half => (&self.heads[session.head], c - session.start),
            _ => (&self.global, c),
        };
        row_equal(row, unc, scores.0.row(i), scores.1[i])
    }
}

/// The clamped right-edge windows of a finished session: the reference
/// for its stream positions `start..end`.
struct Tail {
    end: usize,
    start: usize,
    scores: Scores,
}

impl Tail {
    /// The reference for the right-edge windows of a session opened at
    /// `start` and finished after position `end - 1`.
    fn new(svc: &dyn DynService, half: usize, start: usize, end: usize) -> Self {
        let from = end.saturating_sub(2 * half + 1).max(start);
        Self {
            end,
            start: from,
            scores: svc.sequential_reference(from, end - from),
        }
    }
}

struct Session {
    id: SessionId,
    /// The first stream position it was offered.
    start: usize,
    /// Index in `Expected::heads` of its left-edge reference.
    head: usize,
    /// Next stream position to offer.
    next: usize,
    /// Next stream position whose row is expected.
    delivered: usize,
    /// Due times of accepted items at positions `>= start + half`, oldest
    /// first: the front is the newest item of the next row to be
    /// delivered.
    due: VecDeque<Instant>,
    /// Open loop only: due times of items scheduled but not yet accepted.
    backlog: VecDeque<Instant>,
}

impl Session {
    /// A session that opens at `first_start(head)`.
    fn new(id: SessionId, head: usize, len: usize) -> Self {
        let start = first_start(head, len);
        Self {
            id,
            start,
            head,
            next: start,
            delivered: start,
            due: VecDeque::new(),
            backlog: VecDeque::new(),
        }
    }
}

/// Per-call timings of the service's public API, for the diagnostics.
#[derive(Default)]
struct CallTimes {
    ingest: Duration,
    accepted: u64,
    drain_ms: Vec<f64>,
    poll: Duration,
    polls: u64,
}

struct Client<'a> {
    svc: &'a ServiceHarness<VideoScenario>,
    expected: &'a Expected,
    pool: ThreadPool,
    sessions: Vec<Session>,
    generation: u64,
    checked: Checked,
    latencies: LatencyHistogram,
    /// Rows delivered (each a window scored).
    windows: u64,
    /// Per round (a tick of the open loop) that delivered rows, its busy
    /// wall time (ingest, drain and poll) per row, in seconds.
    busy_per_window: Vec<f64>,
    /// Offers the closed loop saw refused: its designed backpressure.
    backpressure: u64,
    recycled: u64,
    resident_max: usize,
    calls: CallTimes,
}

impl<'a> Client<'a> {
    fn new(svc: &'a ServiceHarness<VideoScenario>, expected: &'a Expected) -> Self {
        Self {
            svc,
            expected,
            pool: ThreadPool::new(1),
            sessions: (0..SESSIONS)
                .map(|s| Session::new(SessionId(s as u64), s, expected.len))
                .collect(),
            generation: 0,
            checked: Checked::default(),
            latencies: LatencyHistogram::new(),
            windows: 0,
            busy_per_window: Vec::new(),
            backpressure: 0,
            recycled: 0,
            resident_max: 0,
            calls: CallTimes::default(),
        }
    }

    /// Offers session `s` its next position, due at `due`; false when
    /// the queue is full.
    fn offer(&mut self, s: usize, due: Instant) -> bool {
        if self.sessions[s].next == self.expected.len {
            self.recycle(s);
        }
        let half = self.expected.half;
        let session = &mut self.sessions[s];
        let accepted = self
            .svc
            .try_ingest_position(session.id, session.next)
            .is_ok();
        if accepted {
            self.calls.accepted += 1;
            if session.next >= session.start + half {
                session.due.push_back(due);
            }
            session.next += 1;
        }
        accepted
    }

    /// Verifies delivered rows and, for polled rows, records latency from
    /// the due time of each row's newest item to `polled_at`. `tail` is
    /// the right-edge reference of rows a `finish` delivered.
    fn deliver(
        &mut self,
        s: usize,
        scores: &Scores,
        polled_at: Option<Instant>,
        tail: Option<&Tail>,
    ) {
        let expected = self.expected;
        let session = &mut self.sessions[s];
        let n = scores.1.len();
        let mut wrong = 0;
        for k in 0..n {
            let c = session.delivered + k;
            if !expected.matches(session, c, scores.0.row(k), scores.1[k], tail) {
                wrong += 1;
            }
            if let (Some(at), Some(due)) = (polled_at, session.due.pop_front()) {
                self.latencies.add(at.saturating_duration_since(due));
            }
        }
        session.delivered += n;
        self.windows += n as u64;
        self.checked.add(n, wrong);
    }

    fn poll_all(&mut self) {
        let at = Instant::now();
        for s in 0..SESSIONS {
            if let Some(scores) = self.svc.poll(self.sessions[s].id) {
                self.deliver(s, &scores, Some(at), None);
            }
        }
        self.calls.poll += at.elapsed();
        self.calls.polls += SESSIONS as u64;
    }

    /// Finishes session `s` (its tail windows are flushed and verified)
    /// and opens a fresh session at stream position 0.
    fn recycle(&mut self, s: usize) {
        self.finish(s);
        self.generation += 1;
        let backlog = std::mem::take(&mut self.sessions[s].backlog);
        let id = SessionId(self.generation * SESSIONS as u64 + s as u64);
        self.sessions[s] = Session::new(id, 0, self.expected.len);
        self.sessions[s].backlog = backlog;
        self.recycled += 1;
    }

    fn finish_all(&mut self) {
        for s in 0..SESSIONS {
            self.finish(s);
        }
    }

    fn finish(&mut self, s: usize) {
        let scores = self
            .svc
            .finish(self.sessions[s].id)
            .expect("finishing an open session");
        let session = &self.sessions[s];
        let tail = Tail::new(self.svc, self.expected.half, session.start, session.next);
        self.deliver(s, &scores, None, Some(&tail));
        let missing = (self.sessions[s].next - self.sessions[s].delivered) as u64;
        self.checked.windows += missing;
        self.checked.mismatched += missing;
    }

    /// Forgets what a warm-up measured; its verification counts stay.
    fn reset(&mut self) {
        self.windows = 0;
        self.latencies = LatencyHistogram::new();
        self.busy_per_window.clear();
        self.backpressure = 0;
        self.calls = CallTimes::default();
    }

    /// The diagnostics of a loop that ran for `elapsed` since the last
    /// [`Client::reset`].
    fn report(&self, label: &str, elapsed: Duration) -> Vec<String> {
        let busy = &self.busy_per_window;
        let calls = &self.calls;
        let offers = calls.accepted + self.checked.refused + self.backpressure;
        let mut drain_ms = calls.drain_ms.clone();
        drain_ms.sort_by(f64::total_cmp);
        let seconds = elapsed.as_secs_f64();
        vec![
            format!(
                "{label}: {} windows in {seconds:.2} s ({:.0}/s) over {} rounds; busy µs per \
                 window: fast end {:.4}, median {:.4}",
                self.windows,
                self.windows as f64 / seconds,
                busy.len(),
                best(busy) * 1e6,
                median(busy) * 1e6
            ),
            format!("{label}: row latency {}", self.latencies.report()),
            format!(
                "{label}: drain ms p50 {:.3} p99 {:.3} over {} drains | ingest {:.0} ns/accepted \
                 offer | poll {:.0} ns/session",
                sorted_quantile(&drain_ms, 0.5),
                sorted_quantile(&drain_ms, 0.99),
                drain_ms.len(),
                calls.ingest.as_nanos() as f64 / calls.accepted.max(1) as f64,
                calls.poll.as_nanos() as f64 / calls.polls.max(1) as f64,
            ),
            format!(
                "{label}: offers {offers}, accepted {} (accept ratio {:.4}) | resident rows max {} \
                 (bound {}) | sessions recycled {}",
                calls.accepted,
                calls.accepted as f64 / offers.max(1) as f64,
                self.resident_max,
                SESSIONS * RETAINED * self.svc.assertion_names().len(),
                self.recycled,
            ),
        ]
    }

    /// The open loop: item `j` is due at `t0 + j / STEADY_RATE`, round
    /// robin over the sessions; every tick ingests what is due, drains
    /// and polls. Returns the generator's largest lag behind its ticks.
    fn steady(&mut self, budget: Duration, mut trace: Option<&mut Trace>) -> Duration {
        let t0 = Instant::now();
        let mut scheduled = 0u64;
        let mut lag_max = Duration::ZERO;
        for tick in 0u32.. {
            let at = t0 + TICK * tick;
            if TICK * tick >= budget && !self.busy_per_window.is_empty() {
                break;
            }
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let start = Instant::now();
            lag_max = lag_max.max(start - at);
            let due_by = ((start - t0).as_secs_f64() * STEADY_RATE) as u64;
            while scheduled < due_by {
                let due = t0 + Duration::from_secs_f64(scheduled as f64 / STEADY_RATE);
                self.sessions[(scheduled % SESSIONS as u64) as usize]
                    .backlog
                    .push_back(due);
                scheduled += 1;
            }
            let rows = self.windows;
            for s in 0..SESSIONS {
                while let Some(&due) = self.sessions[s].backlog.front() {
                    if !self.offer(s, due) {
                        // A refused offer in the open loop is a failed
                        // request; the item is retried next tick.
                        self.checked.refused += 1;
                        break;
                    }
                    self.sessions[s].backlog.pop_front();
                }
            }
            self.drain_and_poll(u64::from(tick), start, rows, trace.as_deref_mut());
        }
        lag_max
    }

    /// The closed loop: each round offers every session positions until
    /// its queue refuses, then drains and polls.
    fn saturate(&mut self, budget: Duration, mut trace: Option<&mut Trace>) {
        let t0 = Instant::now();
        for round in 0u64.. {
            if t0.elapsed() >= budget && !self.busy_per_window.is_empty() {
                break;
            }
            let start = Instant::now();
            let rows = self.windows;
            for s in 0..SESSIONS {
                while self.offer(s, start) {}
                self.backpressure += 1;
            }
            self.drain_and_poll(round, start, rows, trace.as_deref_mut());
        }
    }

    /// Drains and polls, ending the round that started at `start` with
    /// `rows_before` rows delivered: records its busy time per delivered
    /// row (rounds that delivered nothing are not samples) and its spans.
    fn drain_and_poll(
        &mut self,
        round: u64,
        start: Instant,
        rows_before: u64,
        trace: Option<&mut Trace>,
    ) {
        let offered = Instant::now();
        self.calls.ingest += offered - start;
        self.svc.drain(&self.pool);
        let drained = Instant::now();
        self.calls
            .drain_ms
            .push((drained - offered).as_secs_f64() * 1e3);
        self.poll_all();
        let polled = Instant::now();
        let rows = (self.windows - rows_before) as usize;
        if rows > 0 {
            self.busy_per_window
                .push((polled - start).as_secs_f64() / rows as f64);
        }
        if round.is_multiple_of(64) {
            self.resident_max = self.resident_max.max(self.svc.resident_records());
        }
        if let Some(trace) = trace {
            let tick = trace.open("tick", "video", start, rows);
            trace.record("ingest", "video", tick, start, offered, rows);
            trace.record("drain", "video", tick, offered, drained, rows);
            trace.record("poll", "video", tick, drained, polled, rows);
            trace.close(tick);
        }
    }
}

/// Runs the `service` workload: the open loop for half the measured
/// time, then the closed loop for the other half, each on its own service
/// after an untimed warm-up.
///
/// `windows_per_s` is the closed loop's capacity: a round's windows ÷ its
/// busy wall time, at the fast end of rounds. The latency metrics are the
/// open loop's: percentiles of every row's latency over its whole run
/// (poll instant − due time of the row's newest item), since queueing
/// behind a stall is what an open loop is there to measure. The open
/// loop's own rate only restates the offered load while the service keeps
/// up, and the closed loop's row latencies only restate its round time
/// and how often the host slowed down (their median spread by 0.33,
/// IQR ÷ median, over ten seeds), so both stay in the diagnostics.
pub fn run(run: &Run) -> Outcome {
    let setup = setup(run.seed, run.trace);
    let expected = Expected::new(&setup.saturate);
    let budget = run.measure_budget();
    let mut trace = run.trace.then(Trace::new);

    let mut open = Client::new(&setup.steady, &expected);
    open.steady(WARM_UP, None);
    open.reset();
    let t0 = Instant::now();
    let lag_max = open.steady(budget / 2, trace.as_mut());
    let mut notes = open.report("open loop", t0.elapsed());
    notes.push(format!(
        "open loop: offered {STEADY_RATE} items/s, {} offers refused, generator lag max {:.3} ms",
        open.checked.refused,
        lag_max.as_secs_f64() * 1e3
    ));
    open.finish_all();

    let mut closed = Client::new(&setup.saturate, &expected);
    closed.checked = open.checked;
    closed.saturate(WARM_UP, None);
    closed.reset();
    let t0 = Instant::now();
    closed.saturate(budget / 2, trace.as_mut());
    notes.extend(closed.report("closed loop", t0.elapsed()));
    closed.finish_all();

    let busy_ns_per_window = best(&closed.busy_per_window) * 1e9;
    if let Some(mut trace) = trace {
        // The layers a drain calls per window, replayed over the same
        // video stream through their public calls.
        let cases: Vec<Box<dyn Case>> = setup.case.into_iter().collect();
        let references = [expected.global.clone()];
        stream::replay(&cases, &references, budget, &mut closed.checked, &mut trace);
        return Outcome::traced(closed.checked, trace, busy_ns_per_window, notes);
    }
    Outcome::end_to_end(
        closed.checked,
        1e9 / busy_ns_per_window,
        &open.latencies,
        notes,
    )
}
