//! Minimal blocking client for the cst-serve wire protocol.
//!
//! A [`Connection`] wraps one TCP stream: it reads and checks the
//! daemon's `hello` frame on connect, then exposes line-oriented send
//! and receive. [`roundtrip`] is the one-shot convenience: connect,
//! send one request, collect every response line until the daemon
//! closes the stream.

use crate::proto;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

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
