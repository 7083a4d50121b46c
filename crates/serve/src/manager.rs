//! Session multiplexing: registry, admission control, worker pool.
//!
//! The daemon admits each `tune` request as a [`Session`] with a stable
//! id and a `queued → running → done|failed` lifecycle (plus `cancelled`
//! for sessions killed before or during their run). Admission is bounded
//! by `workers + queue_depth`, the two numbers [`SessionManager::new`]
//! takes (the daemon's defaults live in [`crate::ServeConfig`]); a
//! request over the limit gets a typed `busy` rejection instead of
//! unbounded queueing. Worker threads drain the queue through
//! [`SessionManager::worker_loop`], running each session through the
//! shared [`crate::session::run_session`] path with a tee-sink telemetry
//! handle, so the session's journal records land in the registry line by
//! line while watchers stream them live.
//!
//! Determinism: a session's journal and outcome are a pure function of
//! its request (plus the daemon environment's fault profile when the
//! request doesn't pin one) — each worker builds a private evaluator and
//! rng from the request seed, so concurrent sessions never share mutable
//! tuning state and identical requests yield byte-identical streams
//! modulo the explicitly wall-clock `wall_*` fields.
//!
//! The manager owns the daemon's `MetricsTable`: fixed named atomics
//! that it and the connection handlers update in place, and that
//! [`SessionManager::metrics_frame`] writes out. A daemon runs alone in
//! its process, so the process-wide shared memos hold exactly its
//! sessions' (stencil, arch) pairs: the `metrics` frame reports every
//! one of them.

use crate::proto::{self, RequestKind};
use crate::session::{run_session, DoneInfo, TuneRequest};
use cst_gpu_sim::registry::shared_memo_stats;
use cst_obs::JournalStore;
use cst_telemetry::{strip_wall_fields, HistSnapshot, Telemetry};
use cst_transfer::KnowledgeBase;
use cstuner_core::CancelToken;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Lifecycle state of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is tuning.
    Running,
    /// Finished with an outcome.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl SessionState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Done => "done",
            SessionState::Failed => "failed",
            SessionState::Cancelled => "cancelled",
        }
    }

    /// Whether the session has reached a final state.
    pub fn is_terminal(self) -> bool {
        matches!(self, SessionState::Done | SessionState::Failed | SessionState::Cancelled)
    }
}

/// What a watcher sees next: more journal records, or the end.
#[derive(Debug, Clone)]
pub enum Progress {
    /// New journal records past the watcher's cursor.
    Records(Vec<String>),
    /// The session reached a terminal state and every record has been
    /// delivered.
    Terminal {
        /// Final state (`done`, `failed` or `cancelled`).
        state: SessionState,
        /// Outcome summary, for `done` sessions.
        done: Option<DoneInfo>,
        /// Failure message, for `failed` sessions.
        error: Option<String>,
    },
}

struct SessionShared {
    state: SessionState,
    lines: Vec<String>,
    done: Option<DoneInfo>,
    error: Option<String>,
}

/// One admitted tuning session: request, live journal and state, shared
/// between the worker that runs it and any number of watchers.
pub struct Session {
    /// Stable session id (assigned in admission order, starting at 0).
    pub id: u64,
    /// The validated request.
    pub request: TuneRequest,
    /// Cancellation handle wired into the session's evaluator.
    pub cancel: CancelToken,
    shared: Mutex<SessionShared>,
    cv: Condvar,
}

impl Session {
    fn new(id: u64, request: TuneRequest) -> Arc<Session> {
        Arc::new(Session {
            id,
            request,
            cancel: CancelToken::new(),
            shared: Mutex::new(SessionShared {
                state: SessionState::Queued,
                lines: Vec::new(),
                done: None,
                error: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Current state.
    pub fn state(&self) -> SessionState {
        self.shared.lock().expect("session lock").state
    }

    /// Journal records emitted so far.
    pub fn record_count(&self) -> usize {
        self.shared.lock().expect("session lock").lines.len()
    }

    /// Snapshot of the journal so far (raw lines, wall fields included).
    pub fn lines_snapshot(&self) -> Vec<String> {
        self.shared.lock().expect("session lock").lines.clone()
    }

    /// Block until there is something past `cursor` (more records or the
    /// terminal state). Watchers call this in a loop, advancing their
    /// cursor by the records received, and stop on
    /// [`Progress::Terminal`].
    pub fn follow(&self, cursor: usize) -> Progress {
        let mut g = self.shared.lock().expect("session lock");
        loop {
            if g.lines.len() > cursor {
                return Progress::Records(g.lines[cursor..].to_vec());
            }
            if g.state.is_terminal() {
                return Progress::Terminal {
                    state: g.state,
                    done: g.done.clone(),
                    error: g.error.clone(),
                };
            }
            g = self.cv.wait(g).expect("session lock");
        }
    }

    fn push_line(&self, line: &str) {
        self.shared.lock().expect("session lock").lines.push(line.to_string());
        self.cv.notify_all();
    }

    fn finalize(&self, state: SessionState, done: Option<DoneInfo>, error: Option<String>) {
        let mut g = self.shared.lock().expect("session lock");
        g.state = state;
        g.done = done;
        g.error = error;
        drop(g);
        self.cv.notify_all();
    }

    /// Atomically `queued → running`; false if the session was cancelled
    /// while queued (the worker then skips it).
    fn begin_running(&self) -> bool {
        let mut g = self.shared.lock().expect("session lock");
        if g.state == SessionState::Queued {
            g.state = SessionState::Running;
            true
        } else {
            false
        }
    }

    /// Atomically `queued → cancelled`; false if a worker already picked
    /// the session up (or it already finished).
    fn cancel_queued(&self) -> bool {
        let mut g = self.shared.lock().expect("session lock");
        if g.state == SessionState::Queued {
            g.state = SessionState::Cancelled;
            drop(g);
            self.cv.notify_all();
            true
        } else {
            false
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Admission limit reached.
    Busy {
        /// Sessions currently running.
        running: usize,
        /// Sessions waiting in the queue.
        queued: usize,
        /// The admission limit (`workers + queue_depth`).
        limit: usize,
    },
    /// The daemon is draining for shutdown.
    ShuttingDown,
}

struct MgrShared {
    sessions: BTreeMap<u64, Arc<Session>>,
    queue: VecDeque<u64>,
    next_id: u64,
    /// Admitted and not yet terminal (queued + running).
    active: usize,
    /// Sessions that reached a terminal state.
    completed: u64,
    shutting_down: bool,
}

/// Sessions by lifecycle state at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Admitted, waiting for a worker.
    pub queued: usize,
    /// Currently tuning.
    pub running: usize,
    /// Finished with an outcome.
    pub done: usize,
    /// Finished with an error.
    pub failed: usize,
    /// Cancelled before completion.
    pub cancelled: usize,
}

/// One session's one-line summary in the all-sessions `status` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRow {
    /// Session id.
    pub session: u64,
    /// Wire name of the current state.
    pub state: &'static str,
    /// Journal records emitted so far.
    pub records: usize,
    /// Requested stencil.
    pub stencil: String,
    /// Requested architecture.
    pub arch: String,
    /// Requested tuner.
    pub tuner: String,
    /// Request seed.
    pub seed: u64,
}

/// The daemon's operational metrics: one fixed table of named atomics
/// that the manager and the connection handlers update in place, and
/// that [`proto::metrics_frame`] writes under the field names. Counting
/// takes no lock; each latency digest keeps a mutex of its own. The
/// table is observability only: nothing reads it back into a tuning
/// decision.
#[derive(Default)]
pub(crate) struct MetricsTable {
    /// `tune` requests admitted.
    pub(crate) admission_accepted: AtomicU64,
    /// `tune` requests refused with a `busy` frame.
    pub(crate) admission_busy: AtomicU64,
    /// Warm starts whose knowledge base produced seeds.
    pub(crate) warm_kb_hit: AtomicU64,
    /// Warm starts that resolved to nothing (empty store, unknown
    /// stencil, unreadable index).
    pub(crate) warm_kb_miss: AtomicU64,
    /// Training rows behind the latest warm start.
    pub(crate) warm_kb_train: AtomicU64,
    /// Connections streaming a session (`tune` or `watch`).
    pub(crate) watchers: AtomicU64,
    /// Request lines per [`RequestKind`], indexed by the kind.
    pub(crate) requests: [AtomicU64; RequestKind::ALL.len()],
    /// Request bytes read (wall-class, like every field below).
    pub(crate) wall_wire_in_bytes: AtomicU64,
    /// Frame bytes written.
    pub(crate) wall_wire_out_bytes: AtomicU64,
    /// Handling time per [`RequestKind`] in ms, from the request read to
    /// the reply fully written.
    pub(crate) wall_req_ms: [Mutex<HistSnapshot>; RequestKind::ALL.len()],
}

/// The session registry and scheduler shared by every connection thread
/// and worker thread of one daemon.
pub struct SessionManager {
    /// Worker threads (max concurrently running sessions).
    workers: usize,
    /// Admitted-but-unfinished sessions allowed at once: the workers
    /// plus the queue depth.
    admission_limit: usize,
    archive: Option<JournalStore>,
    shared: Mutex<MgrShared>,
    /// Wakes workers when the queue grows or shutdown begins.
    work_cv: Condvar,
    /// Wakes the shutdown drain when a session finishes.
    idle_cv: Condvar,
    /// Operational metrics. Per-manager (not process-global) so
    /// concurrent daemons in one process stay independent.
    metrics: MetricsTable,
    started: Instant,
}

impl SessionManager {
    /// Build a manager for `workers` worker threads and `queue_depth`
    /// more sessions waiting in the queue. With an `archive` store, every
    /// `done` session's wall-stripped journal is ingested as a run
    /// summary on completion.
    pub fn new(
        workers: usize,
        queue_depth: usize,
        archive: Option<JournalStore>,
    ) -> Arc<SessionManager> {
        Arc::new(SessionManager {
            workers,
            admission_limit: workers + queue_depth,
            archive,
            shared: Mutex::new(MgrShared {
                sessions: BTreeMap::new(),
                queue: VecDeque::new(),
                next_id: 0,
                active: 0,
                completed: 0,
                shutting_down: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            metrics: MetricsTable::default(),
            started: Instant::now(),
        })
    }

    /// Worker threads to run over [`SessionManager::worker_loop`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The manager's metrics table, which the connection layer updates
    /// too (requests, wire bytes, watchers, latencies).
    pub(crate) fn metrics(&self) -> &MetricsTable {
        &self.metrics
    }

    /// Sessions by state at this instant.
    pub fn counts_by_state(&self) -> SessionCounts {
        let g = self.shared.lock().expect("manager lock");
        let mut counts = SessionCounts::default();
        for session in g.sessions.values() {
            match session.state() {
                SessionState::Queued => counts.queued += 1,
                SessionState::Running => counts.running += 1,
                SessionState::Done => counts.done += 1,
                SessionState::Failed => counts.failed += 1,
                SessionState::Cancelled => counts.cancelled += 1,
            }
        }
        counts
    }

    /// One summary row per known session, in admission order.
    pub fn session_rows(&self) -> Vec<SessionRow> {
        let g = self.shared.lock().expect("manager lock");
        g.sessions
            .values()
            .map(|s| SessionRow {
                session: s.id,
                state: s.state().name(),
                records: s.record_count(),
                stencil: s.request.stencil.clone(),
                arch: s.request.arch.clone(),
                tuner: s.request.tuner.clone(),
                seed: s.request.seed,
            })
            .collect()
    }

    /// The `metrics` frame at this instant. Its `queue_depth` and
    /// `sessions_running` gauges are the same per-state session counts
    /// the frame's `sessions` section shows, so the two never disagree.
    pub fn metrics_frame(&self) -> String {
        proto::metrics_frame(
            &self.counts_by_state(),
            &self.metrics,
            &shared_memo_stats(),
            self.started.elapsed().as_secs_f64() * 1e3,
        )
    }

    /// Admit a session or reject it (typed). Admission never blocks, and
    /// it wakes no worker: the caller writes its client's `accepted`
    /// frame first and then calls [`SessionManager::wake_worker`], so an
    /// idle worker cannot start the session before that frame is written.
    /// A worker that finishes another session meanwhile still takes it
    /// from the queue.
    pub fn submit(&self, request: TuneRequest) -> Result<Arc<Session>, Rejection> {
        let mut g = self.shared.lock().expect("manager lock");
        if g.shutting_down {
            return Err(Rejection::ShuttingDown);
        }
        let limit = self.admission_limit;
        if g.active >= limit {
            self.metrics.admission_busy.fetch_add(1, Ordering::Relaxed);
            return Err(Rejection::Busy {
                running: g.active - g.queue.len(),
                queued: g.queue.len(),
                limit,
            });
        }
        let id = g.next_id;
        g.next_id += 1;
        let session = Session::new(id, request);
        g.sessions.insert(id, Arc::clone(&session));
        g.queue.push_back(id);
        g.active += 1;
        self.metrics.admission_accepted.fetch_add(1, Ordering::Relaxed);
        Ok(session)
    }

    /// Wake one idle worker for a session [`SessionManager::submit`]
    /// admitted.
    pub fn wake_worker(&self) {
        self.work_cv.notify_one();
    }

    /// Look up a session (alive for the daemon's lifetime, so finished
    /// sessions stay watchable).
    pub fn get(&self, id: u64) -> Option<Arc<Session>> {
        self.shared.lock().expect("manager lock").sessions.get(&id).cloned()
    }

    /// Cancel a session. A queued session is finalized as `cancelled`
    /// immediately (freeing its admission slot); a running session's
    /// token is flipped, winding its search down at the next budget
    /// check — it then finishes as `done` with its best-so-far outcome
    /// (or `failed` when cancelled before anything was evaluated).
    /// Returns the state observed at cancellation, `None` for an unknown
    /// id.
    pub fn cancel(&self, id: u64) -> Option<SessionState> {
        let session = self.get(id)?;
        if session.cancel_queued() {
            // Dequeue and account under one lock so the invariant
            // `queue.len() <= active` (which `running = active -
            // queue.len()` relies on) holds at every instant. The id
            // may already be gone from the queue when a worker popped
            // it just before the cancellation landed.
            let mut g = self.shared.lock().expect("manager lock");
            g.queue.retain(|&q| q != id);
            g.active -= 1;
            g.completed += 1;
            drop(g);
            self.idle_cv.notify_all();
            return Some(SessionState::Cancelled);
        }
        let state = session.state();
        if state == SessionState::Running {
            session.cancel.cancel();
        }
        Some(state)
    }

    /// One worker: pop sessions and run them until shutdown drains the
    /// queue. Spawn [`SessionManager::workers`] threads over this.
    pub fn worker_loop(&self) {
        loop {
            let next = {
                let mut g = self.shared.lock().expect("manager lock");
                loop {
                    if let Some(id) = g.queue.pop_front() {
                        let session =
                            g.sessions.get(&id).cloned().expect("queued session is registered");
                        // `cancel` finalizes, dequeues and accounts for
                        // sessions cancelled while queued, so normally
                        // they never reach us; this skip covers the
                        // race where the cancellation lands between our
                        // pop and `begin_running` (cancel then sees the
                        // id already gone and only fixes the counts).
                        if session.begin_running() {
                            break Some(session);
                        }
                        continue;
                    }
                    if g.shutting_down {
                        break None;
                    }
                    g = self.work_cv.wait(g).expect("manager lock");
                }
            };
            match next {
                Some(session) => self.run_one(&session),
                None => return,
            }
        }
    }

    fn run_one(&self, session: &Arc<Session>) {
        let sink = Arc::clone(session);
        let tel = Telemetry::to_sink(move |line| sink.push_line(line));
        match run_session(&session.request, &tel, Some(session.cancel.clone())) {
            Ok(outcome) => {
                let done = DoneInfo::new(&outcome);
                if let Some(w) = &outcome.warm {
                    let m = &self.metrics;
                    let resolved = if w.seeds > 0 { &m.warm_kb_hit } else { &m.warm_kb_miss };
                    resolved.fetch_add(1, Ordering::Relaxed);
                    m.warm_kb_train.store(w.n_train as u64, Ordering::Relaxed);
                }
                if let Some(store) = &self.archive {
                    // Best effort: an unwritable archive must not fail
                    // the session (the client already has the stream).
                    let stripped: Vec<String> =
                        session.lines_snapshot().iter().map(|l| strip_wall_fields(l)).collect();
                    let _ = store.ingest_lines(&archive_name(store, session), &stripped);
                    // Auto-feed: once an operator has built a `kb.json`
                    // in the archive, every finished session refreshes
                    // it, so later `--warm <archive>` requests see the
                    // daemon's own history. Opt-in by the index's
                    // existence; best effort like the ingest itself.
                    if KnowledgeBase::path_in(store.dir()).exists() {
                        if let Ok(build) = KnowledgeBase::build(store) {
                            let _ = build.kb.save(store.dir());
                        }
                    }
                }
                self.session_finished(session, SessionState::Done, Some(done), None);
            }
            Err(e) => {
                self.session_finished(session, SessionState::Failed, None, Some(e.to_string()))
            }
        }
    }

    /// Publish a session's terminal state and free its admission slot
    /// under one manager lock, so a client that has read `session_done`
    /// never finds the slot still taken.
    fn session_finished(
        &self,
        session: &Session,
        state: SessionState,
        done: Option<DoneInfo>,
        error: Option<String>,
    ) {
        let mut g = self.shared.lock().expect("manager lock");
        session.finalize(state, done, error);
        g.active -= 1;
        g.completed += 1;
        drop(g);
        self.idle_cv.notify_all();
    }

    /// Begin a graceful shutdown: reject new submissions, let workers
    /// drain every admitted session, and block until the last one
    /// reaches a terminal state. Returns the total sessions completed
    /// over the daemon's lifetime. Requires the worker threads to be
    /// running if anything is still queued.
    pub fn begin_shutdown(&self) -> u64 {
        let mut g = self.shared.lock().expect("manager lock");
        g.shutting_down = true;
        self.work_cv.notify_all();
        while g.active > 0 {
            g = self.idle_cv.wait(g).expect("manager lock");
        }
        g.completed
    }
}

/// The archive name of a finished session, `s{id:03}-{stencil}-seed{seed}`.
/// Session ids restart at 0 with each daemon, so when an earlier daemon
/// on the same archive took that name, the session gets the first free
/// `…-1`, `…-2`, …: a daemon never replaces a summary.
fn archive_name(store: &JournalStore, session: &Session) -> String {
    let req = &session.request;
    let base = format!("s{:03}-{}-seed{}", session.id, req.stencil, req.seed);
    let mut name = base.clone();
    for n in 1.. {
        if !store.path_of(&name).exists() {
            break;
        }
        name = format!("{base}-{n}");
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{FaultSpec, TuneRequest};

    fn quick_req(seed: u64) -> TuneRequest {
        TuneRequest::build(None, None, None, Some(seed), Some(6.0), true, Some(FaultSpec::Off))
            .unwrap()
    }

    #[test]
    fn admission_is_bounded_with_a_typed_busy_rejection() {
        // No worker threads: everything stays queued, deterministically.
        let mgr = SessionManager::new(1, 1, None);
        let s0 = mgr.submit(quick_req(0)).expect("first fits");
        let s1 = mgr.submit(quick_req(1)).expect("second fits the queue");
        assert_eq!((s0.id, s1.id), (0, 1));
        let rejection = mgr.submit(quick_req(2)).map(|s| s.id).unwrap_err();
        assert_eq!(rejection, Rejection::Busy { running: 0, queued: 2, limit: 2 });
        // Cancelling a queued session frees its slot immediately.
        assert_eq!(mgr.cancel(0), Some(SessionState::Cancelled));
        assert_eq!(s0.state(), SessionState::Cancelled);
        let s3 = mgr.submit(quick_req(3)).expect("slot freed by cancellation");
        assert_eq!(s3.id, 2, "ids keep counting in admission order");
        assert_eq!(mgr.cancel(99), None, "unknown ids are None, not a panic");
    }

    #[test]
    fn cancelling_queued_sessions_keeps_admission_counts_sane() {
        // Regression: cancelling a queued session used to free its
        // admission slot without removing its id from the queue, so
        // `queue.len()` could exceed `active` and the derived running
        // count `active - queue.len()` underflowed (a debug panic while
        // holding the manager lock, wedging the daemon). No workers:
        // sessions stay queued deterministically.
        let mgr = SessionManager::new(1, 1, None);
        let s0 = mgr.submit(quick_req(0)).unwrap();
        let s1 = mgr.submit(quick_req(1)).unwrap();
        assert_eq!(mgr.cancel(s0.id), Some(SessionState::Cancelled));
        assert_eq!(mgr.cancel(s1.id), Some(SessionState::Cancelled));
        let counts = mgr.counts_by_state();
        assert_eq!(
            (counts.running, counts.queued, counts.cancelled),
            (0, 0, 2),
            "cancelled sessions leave no residue"
        );
        // Refill to the admission limit, then one more: the busy frame
        // must report sane counts, not a wrapped running count.
        let _s2 = mgr.submit(quick_req(2)).expect("slot freed by first cancel");
        let _s3 = mgr.submit(quick_req(3)).expect("slot freed by second cancel");
        let rejection = mgr.submit(quick_req(4)).map(|s| s.id).unwrap_err();
        assert_eq!(rejection, Rejection::Busy { running: 0, queued: 2, limit: 2 });
        // A late-started worker drains only the live sessions; the
        // cancelled ids are gone from the queue.
        let worker = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || mgr.worker_loop())
        };
        assert_eq!(mgr.begin_shutdown(), 4, "2 cancelled + 2 run to completion");
        worker.join().unwrap();
    }

    #[test]
    fn worker_runs_sessions_and_shutdown_drains() {
        let dir = std::env::temp_dir().join(format!("cst_serve_archive_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = JournalStore::open(&dir).unwrap();
        let mgr = SessionManager::new(1, 2, Some(store.clone()));
        let worker = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || mgr.worker_loop())
        };
        let session = mgr.submit(quick_req(1)).unwrap();
        mgr.wake_worker();
        // Follow to the end like a watcher would.
        let mut cursor = 0;
        let terminal = loop {
            match session.follow(cursor) {
                Progress::Records(lines) => cursor += lines.len(),
                Progress::Terminal { state, done, error } => break (state, done, error),
            }
        };
        assert_eq!(terminal.0, SessionState::Done);
        let done = terminal.1.expect("done info");
        assert!(terminal.2.is_none());
        assert!(done.best_ms.is_finite());
        // The recorded stream is a schema-valid journal.
        let lines = session.lines_snapshot();
        cst_telemetry::schema::validate_journal(&lines).expect("valid journal");
        assert_eq!(cursor, lines.len(), "watcher saw every record exactly once");
        // The finished run was auto-ingested into the archive.
        assert_eq!(store.list().unwrap(), ["s000-j3d7pt-seed1"]);
        assert_eq!(mgr.begin_shutdown(), 1);
        worker.join().unwrap();
        assert!(mgr.submit(quick_req(2)).is_err(), "draining daemon rejects new work");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelling_a_running_session_winds_it_down() {
        let mgr = SessionManager::new(1, 1, None);
        let worker = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || mgr.worker_loop())
        };
        // A full-scale (non-quick) run is long enough to catch mid-run.
        let req = TuneRequest::build(
            Some("j3d7pt"),
            None,
            None,
            Some(4),
            Some(5000.0),
            false,
            Some(FaultSpec::Off),
        )
        .unwrap();
        let session = mgr.submit(req).unwrap();
        mgr.wake_worker();
        // Wait for the run to actually start emitting, then cancel.
        while session.record_count() < 2 {
            std::thread::yield_now();
        }
        mgr.cancel(session.id);
        let mut cursor = 0;
        let state = loop {
            match session.follow(cursor) {
                Progress::Records(lines) => cursor += lines.len(),
                Progress::Terminal { state, .. } => break state,
            }
        };
        // Cancellation reads as budget expiry: best-so-far when the
        // search had started, clean failure when it had not.
        assert!(state.is_terminal());
        assert_ne!(state, SessionState::Cancelled, "a picked-up session finishes its lifecycle");
        assert_eq!(mgr.begin_shutdown(), 1);
        worker.join().unwrap();
    }
}
