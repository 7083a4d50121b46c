//! The TCP front door: accept loop, per-connection protocol handling,
//! graceful shutdown.
//!
//! One connection carries one request. The handler greets with `hello`,
//! reads the request line, and either streams a session (`tune`,
//! `watch`), answers a one-shot query (`status`, `cancel`), or drains
//! the daemon (`shutdown`). The accept loop blocks in `accept`; once
//! the `shutdown` drain completes, the handler sets the stop flag and
//! opens one throwaway connection to the listener's own port (loopback
//! when bound to an unspecified address) to wake the loop so it exits.
//! Accepted streams set `TCP_NODELAY` and every frame goes out in one
//! write, so no frame waits on a delayed ACK.

use crate::manager::{Progress, Rejection, Session, SessionManager};
use crate::proto;
use cst_obs::JournalStore;
use cst_telemetry::metrics::CounterHandle;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (`cstuner serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (max concurrently running sessions), 2 by default.
    pub workers: usize,
    /// Additional sessions allowed to wait in the queue, 8 by default.
    pub queue_depth: usize,
    /// Auto-ingest finished runs into this [`JournalStore`] directory.
    pub archive: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4815".to_string(),
            workers: 2,
            queue_depth: 8,
            archive: None,
        }
    }
}

/// A bound daemon: listener plus session manager. Call
/// [`Server::start_workers`] then [`Server::serve`] (blocking), or use
/// [`Server::spawn`] for a background instance.
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener and build the session manager (opening the
    /// archive store, if configured).
    pub fn bind(cfg: &ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let archive = match &cfg.archive {
            Some(dir) => Some(JournalStore::open(dir)?),
            None => None,
        };
        let manager = SessionManager::new(cfg.workers.max(1), cfg.queue_depth, archive);
        Ok(Server { listener, manager, stop: Arc::default() })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// The shared session manager.
    pub fn manager(&self) -> Arc<SessionManager> {
        Arc::clone(&self.manager)
    }

    /// Spawn the worker pool ([`SessionManager::workers`] threads over
    /// [`SessionManager::worker_loop`]).
    pub fn start_workers(&self) -> Vec<JoinHandle<()>> {
        (0..self.manager.workers())
            .map(|_| {
                let manager = self.manager();
                std::thread::spawn(move || manager.worker_loop())
            })
            .collect()
    }

    /// Run the accept loop until a `shutdown` request completes its
    /// drain. Each connection is handled on its own thread.
    pub fn serve(&self) {
        let wake = wake_addr(self.local_addr());
        loop {
            let accepted = self.listener.accept();
            // Pairs with the `shutdown` handler's Release store, made
            // before it opens the wake-up connection this accept returns.
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            match accepted {
                Ok((stream, _)) => {
                    let manager = self.manager();
                    let stop = Arc::clone(&self.stop);
                    std::thread::spawn(move || handle_connection(stream, &manager, &stop, wake));
                }
                Err(e) => {
                    // Transient accept failures (EINTR, ECONNABORTED,
                    // EMFILE under fd pressure) must not end the loop:
                    // the daemon would silently stop accepting while
                    // its workers park forever on the queue, and
                    // `serve` would hang joining them. Log, back off
                    // and retry; only the stop flag exits.
                    eprintln!("cst-serve: accept error (retrying): {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Bind, start the workers and run the accept loop on background
    /// threads. The returned handle joins everything after a client
    /// `shutdown`.
    pub fn spawn(cfg: &ServeConfig) -> Result<ServerHandle, String> {
        Self::spawn_inner(cfg, true)
    }

    /// Like [`Server::spawn`] but with the worker pool NOT started, so
    /// admitted sessions stay queued forever: admission-control tests
    /// get a deterministic `busy` rejection regardless of host speed.
    /// Queued sessions must be cancelled before `shutdown` can drain.
    pub fn spawn_paused(cfg: &ServeConfig) -> Result<ServerHandle, String> {
        Self::spawn_inner(cfg, false)
    }

    fn spawn_inner(cfg: &ServeConfig, start_workers: bool) -> Result<ServerHandle, String> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr();
        let manager = server.manager();
        let workers = if start_workers { server.start_workers() } else { Vec::new() };
        let accept = std::thread::spawn(move || server.serve());
        Ok(ServerHandle { addr, manager, accept, workers })
    }
}

/// Handle onto a daemon spawned with [`Server::spawn`].
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    manager: Arc<SessionManager>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared session manager (for tests poking at sessions
    /// directly).
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Join the accept loop and the worker pool. Only returns after a
    /// client `shutdown` stopped the daemon.
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Where the `shutdown` handler connects to wake the blocked accept
/// loop: the listener's own port, on loopback if it is bound to an
/// unspecified address such as `0.0.0.0`.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => bound.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => bound.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    bound
}

fn send_line(stream: &mut impl Write, line: &str, wire_out: &CounterHandle) -> std::io::Result<()> {
    proto::write_frame(stream, line)?;
    wire_out.add(line.len() as u64 + 1);
    Ok(())
}

/// Send an admitted session's `accepted` frame, then `wake` a worker for
/// it, also when the write failed, so the session runs either way. Waking
/// first would let an idle worker start the session, warm start included,
/// before the frame is even written.
fn send_accepted(
    stream: &mut impl Write,
    session: u64,
    wake: impl FnOnce(),
    wire_out: &CounterHandle,
) -> std::io::Result<()> {
    let sent = send_line(stream, &proto::accepted_frame(session), wire_out);
    wake();
    sent
}

/// Replay a session's records from the start and follow until terminal,
/// then send the `session_done` frame. Returns early (leaving the
/// session running) if the client went away.
fn stream_session(stream: &mut TcpStream, session: &Arc<Session>, wire_out: &CounterHandle) {
    let mut cursor = 0usize;
    loop {
        match session.follow(cursor) {
            Progress::Records(lines) => {
                for line in &lines {
                    if send_line(stream, line, wire_out).is_err() {
                        return;
                    }
                }
                cursor += lines.len();
            }
            Progress::Terminal { state, done, error } => {
                let frame = proto::session_done_frame(
                    session.id,
                    state.name(),
                    done.as_ref(),
                    error.as_deref(),
                );
                let _ = send_line(stream, &frame, wire_out);
                return;
            }
        }
    }
}

/// How long a connected client may take to send its request line
/// before the handler gives up (a silent client would otherwise pin
/// this thread, and its sockets, for the daemon's lifetime).
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The most bytes a request line may take, newline included. The
/// timeout above applies to each read, so without a byte cap a client
/// that trickles bytes and never sends a newline grows the line without
/// bound. A line this long is answered with an `error` frame, and up to
/// as many bytes again are then read and discarded (`discard_input`),
/// so a client that sends at most twice the cap reads that frame.
pub const MAX_REQUEST_LINE_BYTES: u64 = 4 << 20;

/// How long the handler discards input after refusing an over-long line.
const DISCARD_WINDOW: Duration = Duration::from_secs(2);

/// Close the write side, then read and discard up to
/// `MAX_REQUEST_LINE_BYTES` more input within `DISCARD_WINDOW`, or until
/// the client closes. Closing a socket that still holds unread input
/// sends a reset, which can reach the client before it has read the
/// error frame and fail its write or read instead. Returns the bytes
/// discarded.
fn discard_input(stream: &mut TcpStream) -> u64 {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DISCARD_WINDOW;
    let mut buf = [0u8; 16 << 10];
    let mut discarded = 0;
    while discarded < MAX_REQUEST_LINE_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => discarded += n as u64,
        }
    }
    discarded
}

fn handle_connection(
    mut stream: TcpStream,
    manager: &Arc<SessionManager>,
    stop: &AtomicBool,
    wake: SocketAddr,
) {
    let metrics = manager.metrics();
    let wire_in = metrics.wall_counter("wall_wire_in_bytes");
    let wire_out = metrics.wall_counter("wall_wire_out_bytes");
    if stream.set_nodelay(true).is_err()
        || send_line(&mut stream, &proto::hello_frame(), &wire_out).is_err()
    {
        return;
    }
    // The timeout only guards the request read; streaming replies below
    // never reads, so slow watchers are unaffected.
    if stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(reader_stream) = stream.try_clone() else { return };
    let mut line = Vec::new();
    let mut reader = BufReader::new(reader_stream.take(MAX_REQUEST_LINE_BYTES));
    if reader.read_until(b'\n', &mut line).unwrap_or(0) == 0 {
        return;
    }
    let over_long = line.len() as u64 == MAX_REQUEST_LINE_BYTES && line.last() != Some(&b'\n');
    let text = match std::str::from_utf8(&line) {
        Ok(text) => text,
        // The cap may cut a character in two; the line is refused anyway.
        Err(_) if over_long => "",
        // As `read_line` would, drop a line that is not UTF-8 unanswered.
        Err(_) => return,
    };
    wire_in.add(line.len() as u64);
    let started = Instant::now();
    let parsed = if over_long {
        Err(format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"))
    } else {
        proto::parse_request(text.trim())
    };
    // Per-request accounting: a deterministic count per command plus a
    // wall-class latency digest (handling time, request read to reply
    // fully written). Names are static so handles resolve once.
    let (request_counter, latency_hist) = match &parsed {
        Err(_) => ("requests_invalid", "wall_req_invalid_ms"),
        Ok(proto::Request::Tune(_)) => ("requests_tune", "wall_req_tune_ms"),
        Ok(proto::Request::Status { .. }) => ("requests_status", "wall_req_status_ms"),
        Ok(proto::Request::Metrics) => ("requests_metrics", "wall_req_metrics_ms"),
        Ok(proto::Request::Watch { .. }) => ("requests_watch", "wall_req_watch_ms"),
        Ok(proto::Request::Cancel { .. }) => ("requests_cancel", "wall_req_cancel_ms"),
        Ok(proto::Request::Shutdown) => ("requests_shutdown", "wall_req_shutdown_ms"),
    };
    metrics.counter(request_counter).inc();
    match parsed {
        Err(msg) => {
            let _ = send_line(&mut stream, &proto::error_frame(&msg), &wire_out);
        }
        Ok(proto::Request::Tune(request)) => match manager.submit(request) {
            Ok(session) => {
                let wake = || manager.wake_worker();
                if send_accepted(&mut stream, session.id, wake, &wire_out).is_ok() {
                    let watchers = metrics.gauge("watchers");
                    watchers.add(1);
                    stream_session(&mut stream, &session, &wire_out);
                    watchers.add(-1);
                }
            }
            Err(Rejection::Busy { running, queued, limit }) => {
                let _ =
                    send_line(&mut stream, &proto::busy_frame(running, queued, limit), &wire_out);
            }
            Err(Rejection::ShuttingDown) => {
                let _ = send_line(
                    &mut stream,
                    &proto::error_frame("daemon is shutting down"),
                    &wire_out,
                );
            }
        },
        Ok(proto::Request::Status { session: Some(session) }) => {
            let frame = match manager.get(session) {
                Some(s) => proto::session_frame(session, s.state().name(), s.record_count()),
                None => proto::error_frame(&format!("unknown session {session}")),
            };
            let _ = send_line(&mut stream, &frame, &wire_out);
        }
        Ok(proto::Request::Status { session: None }) => {
            let frame = proto::status_frame(&manager.counts_by_state(), &manager.session_rows());
            let _ = send_line(&mut stream, &frame, &wire_out);
        }
        Ok(proto::Request::Metrics) => {
            let ops = manager.ops_snapshot();
            let frame =
                proto::metrics_frame(&ops.counts, &ops.snapshot, &ops.memo, ops.wall_uptime_ms);
            let _ = send_line(&mut stream, &frame, &wire_out);
        }
        Ok(proto::Request::Watch { session }) => match manager.get(session) {
            Some(s) => {
                let watchers = metrics.gauge("watchers");
                watchers.add(1);
                stream_session(&mut stream, &s, &wire_out);
                watchers.add(-1);
            }
            None => {
                let _ = send_line(
                    &mut stream,
                    &proto::error_frame(&format!("unknown session {session}")),
                    &wire_out,
                );
            }
        },
        Ok(proto::Request::Cancel { session }) => {
            let frame = match manager.cancel(session) {
                Some(state) => {
                    let records = manager.get(session).map(|s| s.record_count()).unwrap_or(0);
                    proto::session_frame(session, state.name(), records)
                }
                None => proto::error_frame(&format!("unknown session {session}")),
            };
            let _ = send_line(&mut stream, &frame, &wire_out);
        }
        Ok(proto::Request::Shutdown) => {
            let completed = manager.begin_shutdown();
            let _ = send_line(&mut stream, &proto::bye_frame(completed), &wire_out);
            stop.store(true, Ordering::Release);
            // The accept loop is blocked in `accept`: one throwaway
            // connection wakes it to see the flag. If the connect fails
            // (listener already gone, no free descriptor), the next
            // connection to arrive wakes it instead.
            let _ = TcpStream::connect(wake);
        }
    }
    metrics.wall_hist(latency_hist).observe(started.elapsed().as_secs_f64() * 1e3);
    if over_long {
        wire_in.add(discard_input(&mut stream));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::session::{FaultSpec, TuneRequest};

    fn quick_req(seed: u64) -> TuneRequest {
        TuneRequest::build(None, None, None, Some(seed), Some(6.0), true, Some(FaultSpec::Off))
            .unwrap()
    }

    fn ephemeral(workers: usize, queue_depth: usize) -> ServeConfig {
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers, queue_depth, archive: None }
    }

    #[test]
    fn serves_a_tune_request_end_to_end_and_drains_on_shutdown() {
        let handle = Server::spawn(&ephemeral(1, 2)).unwrap();
        let addr = handle.addr.to_string();
        let frames = client::roundtrip(&addr, &proto::tune_request_line(&quick_req(1))).unwrap();
        assert!(frames.first().unwrap().contains("\"type\":\"accepted\""));
        let done = frames.last().unwrap();
        assert!(done.contains("\"type\":\"session_done\""), "{done}");
        assert!(done.contains("\"state\":\"done\""), "{done}");
        let journal: Vec<String> =
            frames.iter().filter(|l| !proto::is_protocol_frame(l)).cloned().collect();
        cst_telemetry::schema::validate_journal(&journal).expect("streamed journal is valid");
        // Status of the finished session, then a graceful shutdown.
        let status = client::roundtrip(&addr, &proto::session_request_line("status", 0)).unwrap();
        assert!(status[0].contains("\"state\":\"done\""), "{}", status[0]);
        let bye = client::roundtrip(&addr, &proto::shutdown_request_line()).unwrap();
        assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
        assert!(bye[0].contains("\"sessions_completed\":1"), "{}", bye[0]);
        handle.join();
    }

    #[test]
    fn silent_and_vanishing_connections_do_not_stop_the_daemon() {
        let handle = Server::spawn(&ephemeral(1, 1)).unwrap();
        let addr = handle.addr.to_string();
        // A client that connects and vanishes without a request line.
        drop(TcpStream::connect(&addr).unwrap());
        // A client that connects and lingers silently across the next
        // real request (its handler parks on the request read, bounded
        // by REQUEST_READ_TIMEOUT, on a detached thread).
        let idle = TcpStream::connect(&addr).unwrap();
        let frames = client::roundtrip(&addr, &proto::tune_request_line(&quick_req(1))).unwrap();
        assert!(frames.last().unwrap().contains("\"state\":\"done\""), "{frames:?}");
        drop(idle);
        let bye = client::roundtrip(&addr, &proto::shutdown_request_line()).unwrap();
        assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
        handle.join();
    }

    #[test]
    fn shutdown_wakes_a_daemon_bound_to_an_unspecified_address() {
        let handle =
            Server::spawn(&ServeConfig { addr: "0.0.0.0:0".to_string(), ..ephemeral(1, 1) })
                .unwrap();
        let addr = wake_addr(handle.addr).to_string();
        let bye = client::roundtrip(&addr, &proto::shutdown_request_line()).unwrap();
        assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
        // Returns only if the wake-up connection reached the blocked
        // accept loop through loopback.
        handle.join();
    }

    #[test]
    fn accepted_is_sent_before_a_worker_is_woken() {
        /// A client connection that logs each write, and refuses it when
        /// `refuse` is set.
        struct Client<'a> {
            log: &'a std::cell::RefCell<Vec<String>>,
            refuse: bool,
        }
        impl Write for Client<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.log.borrow_mut().push(String::from_utf8_lossy(buf).into_owned());
                if self.refuse {
                    Err(std::io::ErrorKind::BrokenPipe.into())
                } else {
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let wire_out = cst_telemetry::metrics::MetricsRegistry::new().counter("wire_bytes_out");
        for refuse in [false, true] {
            let log = std::cell::RefCell::new(Vec::new());
            let wake = || log.borrow_mut().push("wake".to_string());
            let sent = send_accepted(&mut Client { log: &log, refuse }, 7, wake, &wire_out);
            assert_eq!(sent.is_ok(), !refuse);
            // The frame first, then the wake: a refused write still wakes.
            assert_eq!(log.into_inner(), [proto::accepted_frame(7) + "\n", "wake".to_string()]);
        }
        let accepted_bytes = proto::accepted_frame(7).len() as u64 + 1;
        assert_eq!(wire_out.get(), accepted_bytes, "only the sent frame counts");
    }

    #[test]
    fn wake_addr_maps_unspecified_binds_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:4815"), "127.0.0.1:4815");
        assert_eq!(wake("[::]:4815"), "[::1]:4815");
        assert_eq!(wake("192.0.2.7:4815"), "192.0.2.7:4815");
    }

    #[test]
    fn malformed_and_unknown_requests_get_error_frames() {
        let handle = Server::spawn(&ephemeral(1, 1)).unwrap();
        let addr = handle.addr.to_string();
        let bad = client::roundtrip(&addr, "this is not json").unwrap();
        assert!(bad[0].contains("\"type\":\"error\""), "{}", bad[0]);
        let unknown = client::roundtrip(&addr, &proto::session_request_line("watch", 7)).unwrap();
        assert!(unknown[0].contains("unknown session 7"), "{}", unknown[0]);
        let bye = client::roundtrip(&addr, &proto::shutdown_request_line()).unwrap();
        assert!(bye[0].contains("\"type\":\"bye\""));
        handle.join();
    }
}
