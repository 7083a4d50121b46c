//! The wire protocol: newline-delimited JSON frames over TCP.
//!
//! One connection carries one request and its reply stream. The server
//! greets with a `hello` frame (protocol, crate and journal-schema
//! versions, so clients can negotiate compatibility), reads exactly one
//! request line, and answers with control frames interleaved — for a
//! `tune` — with the session's raw journal records, verbatim as
//! `--journal` would have written them. Control frame types are disjoint
//! from the journal's closed event-type registry, so a client splits the
//! stream with [`is_protocol_frame`] alone.
//!
//! All frames are produced through the telemetry crate's canonical JSON
//! writer ([`cst_telemetry::json`]), so float formatting and string
//! escaping are byte-deterministic across the whole workspace.

use crate::manager::{SessionCounts, SessionRow};
use crate::session::{DoneInfo, FaultSpec, TuneRequest};
use cst_gpu_sim::registry::SharedMemoStats;
use cst_gpu_sim::FaultStats;
use cst_telemetry::json::{self, write_escaped, write_f64, Value};
use cst_telemetry::metrics::{MetricsSnapshot, METRICS_VERSION};
use std::fmt::Write as _;
use std::io::Write;

/// Wire-protocol version, negotiated via the `hello` frame.
pub const PROTO_VERSION: u64 = 1;

/// Control frame types the server may emit. Deliberately disjoint from
/// the journal schema's event-type registry
/// ([`cst_telemetry::schema::EVENT_TYPES`]): any streamed line whose
/// type is not listed here is a journal record.
pub const PROTOCOL_FRAME_TYPES: [&str; 9] =
    ["hello", "accepted", "busy", "error", "session", "session_done", "bye", "status", "metrics"];

/// The `type` of one streamed line, if it parses as a JSON object.
pub fn frame_type(line: &str) -> Option<String> {
    json::parse(line).ok()?.get("type")?.as_str().map(str::to_string)
}

/// Send one line as a frame: the line and its newline in a single
/// `write_all`, so on a `TCP_NODELAY` stream the frame leaves at once
/// rather than as a lone newline held back behind a delayed ACK.
pub fn write_frame(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = String::with_capacity(line.len() + 1);
    frame.push_str(line);
    frame.push('\n');
    w.write_all(frame.as_bytes())
}

/// Whether a streamed line is a control frame (vs. a journal record).
pub fn is_protocol_frame(line: &str) -> bool {
    frame_type(line).is_some_and(|t| PROTOCOL_FRAME_TYPES.contains(&t.as_str()))
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a tuning session.
    Tune(TuneRequest),
    /// One-shot state of a session, or — without a session id — a
    /// summary of every session the daemon knows about.
    Status {
        /// Session id; `None` asks for the all-sessions summary.
        session: Option<u64>,
    },
    /// One-shot operational metrics snapshot of the daemon.
    Metrics,
    /// Replay-and-follow a session's stream (works on queued, running
    /// and finished sessions alike).
    Watch {
        /// Session id.
        session: u64,
    },
    /// Cancel a queued or running session.
    Cancel {
        /// Session id.
        session: u64,
    },
    /// Drain every admitted session, then stop the daemon.
    Shutdown,
}

fn opt_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a string, got {}", x.kind())),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            format!("`{key}` must be an integer from 0 to 2^53 - 1, got {}", x.kind())
        }),
    }
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a number, got {}", x.kind())),
    }
}

/// The `fault` knob of a `tune` request (and of a campaign spec):
/// `"off"`, `"env"` (the `None` default) or `{"seed": N}` for the
/// hostile profile.
pub fn parse_fault(v: &Value) -> Result<Option<FaultSpec>, String> {
    match v.get("fault") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) if s == "off" => Ok(Some(FaultSpec::Off)),
        Some(Value::Str(s)) if s == "env" => Ok(None),
        Some(obj @ Value::Obj(_)) => {
            let seed = obj.get("seed").and_then(Value::as_u64).ok_or_else(|| {
                "`fault` object requires an integer `seed` from 0 to 2^53 - 1".to_string()
            })?;
            Ok(Some(FaultSpec::Hostile { seed }))
        }
        Some(x) => {
            Err(format!("`fault` must be \"off\", \"env\" or {{\"seed\":N}}, got {}", x.kind()))
        }
    }
}

fn parse_tune(v: &Value) -> Result<TuneRequest, String> {
    let quick = match v.get("quick") {
        None | Some(Value::Null) => false,
        Some(Value::Bool(b)) => *b,
        Some(x) => return Err(format!("`quick` must be a bool, got {}", x.kind())),
    };
    let mut req = TuneRequest::build(
        opt_str(v, "stencil")?,
        opt_str(v, "arch")?,
        opt_str(v, "tuner")?,
        opt_u64(v, "seed")?,
        opt_f64(v, "budget_s")?,
        quick,
        parse_fault(v)?,
    )?;
    req.warm = opt_str(v, "warm")?.map(str::to_string);
    Ok(req)
}

/// Parse one request line. Unknown commands, malformed JSON and invalid
/// tuning parameters all come back as one-line error messages suitable
/// for an `error` frame.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| "request is missing a string `cmd`".to_string())?;
    match cmd {
        "tune" => parse_tune(&v).map(Request::Tune),
        "status" => Ok(Request::Status { session: opt_u64(&v, "session")? }),
        "metrics" => Ok(Request::Metrics),
        "watch" | "cancel" => {
            let session = v.get("session").and_then(Value::as_u64).ok_or_else(|| {
                format!("`{cmd}` requires an integer `session` from 0 to 2^53 - 1")
            })?;
            Ok(match cmd {
                "watch" => Request::Watch { session },
                _ => Request::Cancel { session },
            })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd `{other}` (tune|status|metrics|watch|cancel|shutdown)")),
    }
}

/// Serialize a tune request. Every field of the (already validated and
/// defaulted) request is written explicitly, so what the daemon admits
/// is exactly what the client resolved locally.
pub fn tune_request_line(req: &TuneRequest) -> String {
    let mut s = String::from("{\"cmd\":\"tune\",\"stencil\":");
    write_escaped(&mut s, &req.stencil);
    s.push_str(",\"arch\":");
    write_escaped(&mut s, &req.arch);
    s.push_str(",\"tuner\":");
    write_escaped(&mut s, &req.tuner);
    let _ = write!(s, ",\"seed\":{}", req.seed);
    s.push_str(",\"budget_s\":");
    write_f64(&mut s, req.budget_s);
    let _ = write!(s, ",\"quick\":{}", req.quick);
    match req.fault {
        None => {}
        Some(FaultSpec::Off) => s.push_str(",\"fault\":\"off\""),
        Some(FaultSpec::Hostile { seed }) => {
            let _ = write!(s, ",\"fault\":{{\"seed\":{seed}}}");
        }
    }
    // Conditional like `fault`, so cold requests keep their legacy bytes.
    if let Some(warm) = &req.warm {
        s.push_str(",\"warm\":");
        write_escaped(&mut s, warm);
    }
    s.push('}');
    s
}

/// Serialize a `status`/`watch`/`cancel` request.
pub fn session_request_line(cmd: &str, session: u64) -> String {
    format!("{{\"cmd\":\"{cmd}\",\"session\":{session}}}")
}

/// Serialize the `shutdown` request.
pub fn shutdown_request_line() -> String {
    "{\"cmd\":\"shutdown\"}".to_string()
}

/// Serialize the sessionless `status` request (all-sessions summary).
pub fn status_summary_request_line() -> String {
    "{\"cmd\":\"status\"}".to_string()
}

/// Serialize the `metrics` request.
pub fn metrics_request_line() -> String {
    "{\"cmd\":\"metrics\"}".to_string()
}

/// The greeting frame sent on every accepted connection.
pub fn hello_frame() -> String {
    format!(
        "{{\"type\":\"hello\",\"proto\":{PROTO_VERSION},\"service\":\"cst-serve\",\
         \"version\":\"{}\",\"schema\":{}}}",
        env!("CARGO_PKG_VERSION"),
        cst_telemetry::SCHEMA_VERSION
    )
}

/// Admission acknowledgment for a tune request.
pub fn accepted_frame(session: u64) -> String {
    format!("{{\"type\":\"accepted\",\"session\":{session},\"state\":\"queued\"}}")
}

/// Typed admission rejection: the worker pool and queue are full.
pub fn busy_frame(running: usize, queued: usize, limit: usize) -> String {
    format!("{{\"type\":\"busy\",\"running\":{running},\"queued\":{queued},\"limit\":{limit}}}")
}

/// A request-level error (bad request line, unknown session, …).
pub fn error_frame(message: &str) -> String {
    let mut s = String::from("{\"type\":\"error\",\"message\":");
    write_escaped(&mut s, message);
    s.push('}');
    s
}

/// One-shot session state (reply to `status` and `cancel`).
pub fn session_frame(session: u64, state: &str, records: usize) -> String {
    format!("{{\"type\":\"session\",\"session\":{session},\"state\":\"{state}\",\"records\":{records}}}")
}

/// Terminal frame of a streamed session: the outcome summary for a
/// `done` session, the failure message otherwise.
pub fn session_done_frame(
    session: u64,
    state: &str,
    done: Option<&DoneInfo>,
    error: Option<&str>,
) -> String {
    let mut s = format!("{{\"type\":\"session_done\",\"session\":{session},\"state\":\"{state}\"");
    if let Some(d) = done {
        s.push_str(",\"tuner\":");
        write_escaped(&mut s, &d.tuner);
        s.push_str(",\"best_ms\":");
        write_f64(&mut s, d.best_ms);
        s.push_str(",\"baseline_ms\":");
        write_f64(&mut s, d.baseline_ms);
        s.push_str(",\"setting\":");
        write_escaped(&mut s, &d.setting);
        let _ = write!(s, ",\"evaluations\":{}", d.evaluations);
        s.push_str(",\"search_s\":");
        write_f64(&mut s, d.search_s);
        let f = &d.faults;
        let _ = write!(
            s,
            ",\"fault_compile\":{},\"fault_launch\":{},\"fault_timeout\":{},\
             \"fault_outliers\":{},\"fault_retries\":{},\"fault_quarantined\":{}",
            f.compile_errors, f.launch_failures, f.timeouts, f.outliers, f.retries, f.quarantined
        );
    }
    if let Some(e) = error {
        s.push_str(",\"error\":");
        write_escaped(&mut s, e);
    }
    s.push('}');
    s
}

/// Rebuild the outcome summary a `done` session's `session_done` frame
/// carries (a missing number reads as NaN, a missing string as empty).
pub fn done_info_from_frame(v: &Value) -> DoneInfo {
    let uint = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let float = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let text = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    DoneInfo {
        tuner: text("tuner"),
        best_ms: float("best_ms"),
        baseline_ms: float("baseline_ms"),
        setting: text("setting"),
        evaluations: uint("evaluations"),
        search_s: float("search_s"),
        faults: FaultStats {
            compile_errors: uint("fault_compile"),
            launch_failures: uint("fault_launch"),
            timeouts: uint("fault_timeout"),
            outliers: uint("fault_outliers"),
            retries: uint("fault_retries"),
            quarantined: uint("fault_quarantined"),
        },
    }
}

/// Farewell after a shutdown drain.
pub fn bye_frame(sessions_completed: u64) -> String {
    format!("{{\"type\":\"bye\",\"sessions_completed\":{sessions_completed}}}")
}

fn write_session_counts(s: &mut String, counts: &SessionCounts) {
    let _ = write!(
        s,
        "\"sessions\":{{\"queued\":{},\"running\":{},\"done\":{},\"failed\":{},\"cancelled\":{}}}",
        counts.queued, counts.running, counts.done, counts.failed, counts.cancelled
    );
}

/// All-sessions summary (reply to a sessionless `status` request):
/// counts by state plus one row per known session.
pub fn status_frame(counts: &SessionCounts, rows: &[SessionRow]) -> String {
    let mut s = format!("{{\"type\":\"status\",\"proto\":{PROTO_VERSION},");
    write_session_counts(&mut s, counts);
    s.push_str(",\"list\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"session\":{},\"state\":\"{}\",\"records\":{}",
            r.session, r.state, r.records
        );
        s.push_str(",\"stencil\":");
        write_escaped(&mut s, &r.stencil);
        s.push_str(",\"arch\":");
        write_escaped(&mut s, &r.arch);
        s.push_str(",\"tuner\":");
        write_escaped(&mut s, &r.tuner);
        let _ = write!(s, ",\"seed\":{}}}", r.seed);
    }
    s.push_str("]}");
    s
}

/// Operational metrics snapshot (reply to a `metrics` request).
///
/// Field order is part of the determinism contract: every deterministic
/// section (session counts, counters, gauges, histograms) precedes the
/// first `wall*` key, and everything wall-clock-derived — uptime, wire
/// byte totals, request latency digests and the shared-memo stats (whose
/// hit/miss split is thread-timing-dependent under concurrent sessions) —
/// is serialized contiguously last, so
/// [`cst_telemetry::strip_wall_fields`] reduces the frame to a
/// byte-deterministic core.
pub fn metrics_frame(
    counts: &SessionCounts,
    snap: &MetricsSnapshot,
    memo: &[SharedMemoStats],
    wall_uptime_ms: f64,
) -> String {
    let mut s = format!("{{\"type\":\"metrics\",\"proto\":{PROTO_VERSION},");
    write_session_counts(&mut s, counts);
    s.push(',');
    snap.write_deterministic(&mut s);
    s.push_str(",\"wall_uptime_ms\":");
    let _ = write!(s, "{wall_uptime_ms:.3}");
    snap.write_wall(&mut s);
    s.push_str(",\"wall_memo\":[");
    for (i, m) in memo.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"stencil\":");
        write_escaped(&mut s, &m.stencil);
        s.push_str(",\"arch\":");
        write_escaped(&mut s, &m.arch);
        let _ = write!(
            s,
            ",\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"cap\":{}}}",
            m.hits, m.misses, m.evictions, m.entries, m.cap
        );
    }
    s.push_str("]}");
    s
}

fn require_obj<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    match v.get(key) {
        Some(obj @ Value::Obj(_)) => Ok(obj),
        Some(x) => Err(format!("`{key}` must be an object, got {}", x.kind())),
        None => Err(format!("missing `{key}`")),
    }
}

fn check_hist_object(name: &str, h: &Value) -> Result<(), String> {
    for field in ["count", "sum", "min", "max"] {
        match h.get(field) {
            Some(Value::Num(_)) | Some(Value::Null) => {}
            Some(x) => {
                return Err(format!(
                    "hist `{name}` field `{field}` must be a number, got {}",
                    x.kind()
                ))
            }
            None => return Err(format!("hist `{name}` is missing `{field}`")),
        }
    }
    let buckets = h
        .get("buckets")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("hist `{name}` is missing a `buckets` array"))?;
    if buckets.len() != 16 {
        return Err(format!("hist `{name}` has {} buckets, expected 16", buckets.len()));
    }
    Ok(())
}

/// Validate one `metrics` frame line: the frame type, versions, every
/// section's shape (numeric counters/gauges, 16-bucket histogram
/// digests, named memo rows) and the wall-tail ordering contract (no
/// deterministic key after the first `wall*` key). This is the
/// `journal-check`-style validator behind `cstuner metrics-check`.
pub fn validate_metrics_frame(line: &str) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("malformed frame: {e}"))?;
    match v.get("type").and_then(Value::as_str) {
        Some("metrics") => {}
        Some(other) => return Err(format!("frame type is `{other}`, expected `metrics`")),
        None => return Err("frame has no string `type`".to_string()),
    }
    if v.get("proto").and_then(Value::as_u64) != Some(PROTO_VERSION) {
        return Err(format!("`proto` must be {PROTO_VERSION}"));
    }
    if v.get("metrics_version").and_then(Value::as_u64) != Some(METRICS_VERSION) {
        return Err(format!("`metrics_version` must be {METRICS_VERSION}"));
    }
    let sessions = require_obj(&v, "sessions")?;
    for state in ["queued", "running", "done", "failed", "cancelled"] {
        if sessions.get(state).and_then(Value::as_u64).is_none() {
            return Err(format!("`sessions.{state}` must be a non-negative integer"));
        }
    }
    for section in ["counters", "gauges"] {
        let Value::Obj(fields) = require_obj(&v, section)? else { unreachable!() };
        for (name, val) in fields {
            if !matches!(val, Value::Num(_)) {
                return Err(format!("`{section}.{name}` must be a number, got {}", val.kind()));
            }
        }
    }
    for section in ["hists", "wall_hists"] {
        let Value::Obj(fields) = require_obj(&v, section)? else { unreachable!() };
        for (name, h) in fields {
            check_hist_object(name, h)?;
        }
    }
    require_obj(&v, "wall_counters")?;
    let memo = v
        .get("wall_memo")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing `wall_memo` array".to_string())?;
    for row in memo {
        for key in ["stencil", "arch"] {
            if row.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("memo row is missing a string `{key}`"));
            }
        }
        for key in ["hits", "misses", "evictions", "entries", "cap"] {
            if row.get(key).and_then(Value::as_u64).is_none() {
                return Err(format!("memo row is missing a numeric `{key}`"));
            }
        }
    }
    // Ordering contract: once a `wall*` key appears, every later key is
    // also wall-class, so strip_wall_fields removes exactly the
    // nondeterministic tail.
    let Value::Obj(fields) = &v else { unreachable!() };
    let mut seen_wall = false;
    for (key, _) in fields {
        if key.starts_with("wall") {
            seen_wall = true;
        } else if seen_wall {
            return Err(format!("deterministic key `{key}` appears after a wall field"));
        }
    }
    if !seen_wall {
        return Err("frame has no wall tail (`wall_uptime_ms` expected)".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_request_round_trips_through_the_writer_and_parser() {
        let req = TuneRequest::build(
            Some("j3d7pt"),
            Some("v100"),
            Some("random"),
            Some(9),
            Some(12.5),
            true,
            Some(FaultSpec::Hostile { seed: 7 }),
        )
        .unwrap();
        let line = tune_request_line(&req);
        match parse_request(&line).unwrap() {
            Request::Tune(parsed) => assert_eq!(parsed, req),
            other => panic!("expected tune, got {other:?}"),
        }
        let off = TuneRequest { fault: Some(FaultSpec::Off), ..req.clone() };
        match parse_request(&tune_request_line(&off)).unwrap() {
            Request::Tune(parsed) => assert_eq!(parsed.fault, Some(FaultSpec::Off)),
            other => panic!("expected tune, got {other:?}"),
        }
        // The warm knob is conditional: absent on cold requests (legacy
        // bytes) and round-tripped verbatim when set.
        assert!(!tune_request_line(&req).contains("warm"));
        let warm = TuneRequest { warm: Some("results/obs".to_string()), ..req };
        let line = tune_request_line(&warm);
        assert!(line.contains("\"warm\":\"results/obs\""), "{line}");
        match parse_request(&line).unwrap() {
            Request::Tune(parsed) => assert_eq!(parsed, warm),
            other => panic!("expected tune, got {other:?}"),
        }
    }

    #[test]
    fn tune_defaults_apply_to_sparse_requests() {
        match parse_request(r#"{"cmd":"tune","quick":true}"#).unwrap() {
            Request::Tune(req) => {
                assert_eq!(req.stencil, "j3d7pt");
                assert_eq!(req.budget_s, 30.0);
                assert_eq!(req.fault, None);
            }
            other => panic!("expected tune, got {other:?}"),
        }
    }

    #[test]
    fn invalid_requests_are_one_line_errors() {
        assert!(parse_request("not json").unwrap_err().contains("malformed request"));
        assert!(parse_request(r#"{"x":1}"#).unwrap_err().contains("missing a string `cmd`"));
        assert!(parse_request(r#"{"cmd":"frob"}"#).unwrap_err().contains("unknown cmd `frob`"));
        assert!(parse_request(r#"{"cmd":"watch"}"#).unwrap_err().contains("`session`"));
        assert!(parse_request(r#"{"cmd":"tune","seed":"high"}"#)
            .unwrap_err()
            .contains("`seed` must be"));
        assert!(parse_request(r#"{"cmd":"tune","quick":true,"fault":3.0}"#)
            .unwrap_err()
            .contains("`fault` must be"));
        let unknown = parse_request(r#"{"cmd":"tune","stencil":"nope"}"#).unwrap_err();
        assert!(unknown.contains("unknown stencil `nope`"), "{unknown}");
    }

    #[test]
    fn session_requests_parse() {
        assert_eq!(
            parse_request(&session_request_line("status", 3)).unwrap(),
            Request::Status { session: Some(3) }
        );
        assert_eq!(
            parse_request(&status_summary_request_line()).unwrap(),
            Request::Status { session: None }
        );
        assert_eq!(parse_request(&metrics_request_line()).unwrap(), Request::Metrics);
        assert!(parse_request(r#"{"cmd":"status","session":"x"}"#)
            .unwrap_err()
            .contains("`session` must be"));
        assert_eq!(
            parse_request(&session_request_line("cancel", 0)).unwrap(),
            Request::Cancel { session: 0 }
        );
        assert_eq!(parse_request(&shutdown_request_line()).unwrap(), Request::Shutdown);
    }

    #[test]
    fn control_frames_are_valid_json_and_disjoint_from_the_journal_schema() {
        let counts = SessionCounts { queued: 1, running: 1, done: 2, failed: 0, cancelled: 0 };
        let row = SessionRow {
            session: 0,
            state: "done",
            records: 57,
            stencil: "j3d7pt".to_string(),
            arch: "a100".to_string(),
            tuner: "cstuner".to_string(),
            seed: 1,
        };
        let frames = [
            hello_frame(),
            accepted_frame(1),
            busy_frame(2, 3, 5),
            error_frame("bad \"thing\""),
            session_frame(1, "running", 42),
            session_done_frame(1, "failed", None, Some("no valid settings to search")),
            bye_frame(7),
            status_frame(&counts, std::slice::from_ref(&row)),
            metrics_frame(&counts, &MetricsSnapshot::default(), &[], 12.5),
        ];
        for frame in &frames {
            let v = json::parse(frame).expect("frame is valid JSON");
            let ty = v.get("type").and_then(Value::as_str).expect("frame has a type");
            assert!(is_protocol_frame(frame), "{frame}");
            assert!(
                !cst_telemetry::schema::EVENT_TYPES.iter().any(|(t, _)| *t == ty),
                "frame type `{ty}` collides with the journal schema"
            );
        }
        assert!(!is_protocol_frame(r#"{"type":"iteration","seq":3}"#));
    }

    #[test]
    fn metrics_frame_validates_and_strips_to_a_deterministic_core() {
        let counts = SessionCounts { queued: 0, running: 0, done: 1, failed: 0, cancelled: 0 };
        let reg = cst_telemetry::metrics::MetricsRegistry::new();
        reg.counter("admission_accepted").inc();
        reg.gauge("queue_depth").set(0);
        reg.wall_counter("wall_wire_out_bytes").add(4096);
        reg.wall_hist("wall_req_tune_ms").observe(3.5);
        let memo = [SharedMemoStats {
            stencil: "j3d7pt".to_string(),
            arch: "a100".to_string(),
            hits: 10,
            misses: 4,
            evictions: 0,
            entries: 4,
            cap: 0,
        }];
        let frame = metrics_frame(&counts, &reg.snapshot(), &memo, 250.0);
        validate_metrics_frame(&frame).expect("frame validates");
        let stripped = cst_telemetry::strip_wall_fields(&frame);
        assert!(!stripped.contains("wall"), "{stripped}");
        assert!(!stripped.contains("memo"), "memo stats are wall-class: {stripped}");
        json::parse(&stripped).expect("stripped frame stays valid JSON");
        // A second registry with the same deterministic state strips to
        // the same bytes regardless of wall-class traffic.
        let reg2 = cst_telemetry::metrics::MetricsRegistry::new();
        reg2.counter("admission_accepted").inc();
        reg2.gauge("queue_depth").set(0);
        reg2.wall_counter("wall_wire_out_bytes").add(777);
        let frame2 = metrics_frame(&counts, &reg2.snapshot(), &[], 9.0);
        assert_eq!(stripped, cst_telemetry::strip_wall_fields(&frame2));
        // The validator rejects shape violations.
        assert!(validate_metrics_frame("{\"type\":\"metrics\"}").is_err());
        assert!(validate_metrics_frame(&frame.replace("\"proto\":1", "\"proto\":2")).is_err());
        let reordered = frame.replace(",\"wall_uptime_ms\":", ",\"zzz\":1,\"wall_uptime_ms\":");
        validate_metrics_frame(&reordered).expect("det key before wall tail is fine");
        let trailing_det = format!("{},\"late\":1}}", frame.trim_end_matches('}'));
        assert!(validate_metrics_frame(&trailing_det)
            .unwrap_err()
            .contains("appears after a wall field"));
    }

    #[test]
    fn hello_advertises_versions() {
        let v = json::parse(&hello_frame()).unwrap();
        assert_eq!(v.get("proto").and_then(Value::as_u64), Some(PROTO_VERSION));
        assert_eq!(v.get("schema").and_then(Value::as_u64), Some(cst_telemetry::SCHEMA_VERSION));
        assert!(v.get("version").and_then(Value::as_str).is_some());
    }
}
