//! cst-serve: tuning-as-a-service.
//!
//! A long-running daemon (`cstuner serve`) that accepts tuning requests
//! over TCP, multiplexes them onto a bounded worker pool, and streams
//! each session's journal records back to the client as progress
//! events — the same records `cstuner tune --journal` would write, so
//! served and direct runs are bit-identical for equal requests.
//!
//! Layout:
//! - [`session`]: request validation/defaults and [`session::run_session`],
//!   the single tuning path shared by the CLI and the daemon.
//! - [`proto`]: the length-delimited JSONL wire protocol (requests and
//!   control frames, disjoint from journal record types).
//! - [`manager`]: session registry, bounded admission, worker pool,
//!   cancellation, optional archive auto-ingest, shutdown drain, and
//!   the fixed table of operational metrics the `metrics` frame reports.
//! - [`server`]: the TCP accept loop and per-connection handling.
//! - [`client`]: a minimal blocking client used by `cstuner client`, the
//!   campaign executor and the test harness, with the one reader of a
//!   session's reply stream.

pub mod client;
pub mod manager;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{roundtrip, Connection, StreamError, StreamEvent};
pub use manager::{
    Progress, Rejection, Session, SessionCounts, SessionManager, SessionRow, SessionState,
};
pub use proto::{parse_request, validate_metrics_frame, Request, PROTO_VERSION};
pub use server::{ServeConfig, Server, ServerHandle};
pub use session::{
    all_stencils, build_tuner, find_arch, find_stencil, run_session, DoneInfo, FaultSpec,
    SessionOutcome, TuneRequest,
};
