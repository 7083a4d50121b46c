//! Loopback harness for the cst-serve daemon.
//!
//! [`LoopbackServer`] runs a real daemon on an ephemeral localhost port
//! inside the test process — actual TCP, actual worker threads, no
//! mocks — so integration tests exercise exactly the path `cstuner
//! serve` + `cstuner client` take, and golden fixtures pin the wire
//! stream itself.

use cst_serve::{
    proto, Connection, ServeConfig, Server, ServerHandle, SessionManager, TuneRequest,
};
use std::sync::Arc;

/// A daemon bound to `127.0.0.1:0` for the lifetime of a test.
pub struct LoopbackServer {
    handle: ServerHandle,
    addr: String,
}

impl LoopbackServer {
    /// Start a daemon with the given worker/queue limits.
    pub fn start(workers: usize, queue_depth: usize) -> LoopbackServer {
        Self::start_with(workers, queue_depth, true)
    }

    /// Start a daemon whose worker pool is *not* running: admitted
    /// sessions stay queued, making admission-control outcomes
    /// deterministic. Queued sessions must be cancelled before
    /// [`LoopbackServer::shutdown`] can drain.
    pub fn start_paused(workers: usize, queue_depth: usize) -> LoopbackServer {
        Self::start_with(workers, queue_depth, false)
    }

    fn start_with(workers: usize, queue_depth: usize, run_workers: bool) -> LoopbackServer {
        let cfg =
            ServeConfig { addr: "127.0.0.1:0".to_string(), workers, queue_depth, archive: None };
        let handle = if run_workers { Server::spawn(&cfg) } else { Server::spawn_paused(&cfg) }
            .expect("loopback daemon binds");
        let addr = handle.addr.to_string();
        LoopbackServer { handle, addr }
    }

    /// The daemon's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's session manager, for direct inspection.
    pub fn manager(&self) -> &Arc<SessionManager> {
        self.handle.manager()
    }

    /// Open a fresh protocol connection (handshake consumed).
    pub fn connect(&self) -> Connection {
        Connection::connect(&self.addr).expect("loopback connect")
    }

    /// Submit a tune request and collect the full reply stream.
    pub fn tune(&self, req: &TuneRequest) -> Vec<String> {
        self.raw(&proto::tune_request_line(req))
    }

    /// Send any request line and collect the full reply stream.
    pub fn raw(&self, line: &str) -> Vec<String> {
        cst_serve::roundtrip(&self.addr, line).expect("loopback roundtrip")
    }

    /// Gracefully stop the daemon (drain, `bye`, join all threads) and
    /// return the shutdown reply stream.
    pub fn shutdown(self) -> Vec<String> {
        let frames = self.raw(&proto::shutdown_request_line());
        self.handle.join();
        frames
    }
}

/// Split a reply stream into (journal records, control frames).
pub fn split_stream(frames: &[String]) -> (Vec<String>, Vec<String>) {
    let mut journal = Vec::new();
    let mut control = Vec::new();
    for f in frames {
        if proto::is_protocol_frame(f) {
            control.push(f.clone());
        } else {
            journal.push(f.clone());
        }
    }
    (journal, control)
}
