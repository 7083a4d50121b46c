//! Minimal blocking client for the cst-serve wire protocol.
//!
//! A [`Connection`] wraps one TCP stream: it reads and checks the
//! daemon's `hello` frame on connect, then exposes line-oriented send
//! and receive. [`Connection::follow_session`] reads a `tune` or `watch`
//! reply stream to its end, and [`roundtrip`] is the one-shot
//! convenience: connect, send one request, collect every response line
//! until the daemon closes the stream.

use crate::proto::{self, PROTOCOL_FRAME_TYPES};
use cst_telemetry::json::{self, Value};
use std::fmt;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

/// A frame of a session stream other than its last.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamEvent<'a> {
    /// The daemon queued the request as this session.
    Accepted(u64),
    /// One journal record, verbatim.
    Record(&'a str),
}

/// Why a session stream ended without a finished session.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The daemon was at capacity: its `busy` frame's counts of running
    /// and queued sessions and its admission limit.
    Busy { running: u64, queued: u64, limit: u64 },
    /// The daemon refused the request: its `error` frame's message.
    Refused(String),
    /// The session ended `failed` or `cancelled`: its id, terminal state
    /// and failure message (empty when there is none).
    Ended { session: u64, state: String, error: String },
    /// The stream broke, or closed before `session_done`.
    Closed(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Busy { running, queued, limit } => {
                write!(f, "daemon busy: {running} running, {queued} queued (limit {limit})")
            }
            StreamError::Refused(message) | StreamError::Closed(message) => f.write_str(message),
            StreamError::Ended { error, .. } if !error.is_empty() => {
                write!(f, "tuning failed: {error}")
            }
            StreamError::Ended { session, state, .. } => write!(f, "session {session}: {state}"),
        }
    }
}

/// One live protocol connection (post-handshake).
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    hello: String,
}

impl Connection {
    /// Connect and consume the `hello` frame.
    pub fn connect(addr: &str) -> Result<Connection, String> {
        let writer =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let reader_stream = writer.try_clone().map_err(|e| format!("cannot clone stream: {e}"))?;
        let mut conn =
            Connection { writer, reader: BufReader::new(reader_stream), hello: String::new() };
        let hello = conn
            .next_frame()?
            .ok_or_else(|| format!("{addr} closed the connection before saying hello"))?;
        if proto::frame_type(&hello).as_deref() != Some("hello") {
            return Err(format!("{addr} is not a cst-serve daemon (got: {hello})"));
        }
        conn.hello = hello;
        Ok(conn)
    }

    /// The daemon's `hello` frame, verbatim.
    pub fn hello(&self) -> &str {
        &self.hello
    }

    /// Send one request line.
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        proto::write_frame(&mut self.writer, line).map_err(|e| format!("send failed: {e}"))
    }

    /// Read the next line; `None` once the daemon closes the stream.
    pub fn next_frame(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_string())),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Read a `tune` or `watch` reply stream to its end, parsing each
    /// frame once. Journal records and the `accepted` notice go to
    /// `on_event`; a finished session returns its parsed `session_done`
    /// frame, and every other ending is a [`StreamError`]. A line that is
    /// not a control frame is a journal record, verbatim.
    pub fn follow_session(
        &mut self,
        mut on_event: impl FnMut(StreamEvent<'_>),
    ) -> Result<Value, StreamError> {
        loop {
            let frame = self.next_frame().map_err(StreamError::Closed)?.ok_or_else(|| {
                StreamError::Closed("daemon closed the stream before the session finished".into())
            })?;
            let v = json::parse(&frame).unwrap_or(Value::Null);
            let uint = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
            let text = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();
            match v.get("type").and_then(Value::as_str) {
                Some("accepted") => on_event(StreamEvent::Accepted(uint("session"))),
                Some("busy") => {
                    let (running, queued, limit) = (uint("running"), uint("queued"), uint("limit"));
                    return Err(StreamError::Busy { running, queued, limit });
                }
                Some("error") => return Err(StreamError::Refused(text("message"))),
                Some("session_done") if text("state") == "done" => return Ok(v),
                Some("session_done") => {
                    let (session, state, error) = (uint("session"), text("state"), text("error"));
                    return Err(StreamError::Ended { session, state, error });
                }
                Some(ty) if PROTOCOL_FRAME_TYPES.contains(&ty) => {}
                _ => on_event(StreamEvent::Record(&frame)),
            }
        }
    }
}

/// Connect, send one request, and collect every response line (the
/// `hello` frame excluded) until EOF.
pub fn roundtrip(addr: &str, request: &str) -> Result<Vec<String>, String> {
    let mut conn = Connection::connect(addr)?;
    conn.send_line(request)?;
    let mut frames = Vec::new();
    while let Some(frame) = conn.next_frame()? {
        frames.push(frame);
    }
    Ok(frames)
}
