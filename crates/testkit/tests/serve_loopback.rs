//! End-to-end tuning-as-a-service tests over real loopback TCP.
//!
//! Pins the tentpole guarantees of `cst-serve`: a served session streams
//! exactly the journal a plain `cstuner tune --journal` run writes (bit
//! identical modulo wall-clock fields), identical concurrent requests
//! produce identical streams, admission control rejects overload with a
//! typed `busy` frame, and shutdown drains cleanly.

use cst_serve::{proto, run_session, DoneInfo, FaultSpec, TuneRequest};
use cst_telemetry::json::{self, Value, MAX_SAFE_INTEGER};
use cst_telemetry::{schema, strip_wall_fields, Telemetry};
use cst_testkit::{check_golden, hex_bits, split_stream, LoopbackServer};

fn quick_req(seed: u64) -> TuneRequest {
    // Fault knob pinned off so both CI legs (default and CST_FAULT_SEED=7)
    // see the same stream; j3d7pt at a small budget keeps this fast.
    TuneRequest::build(
        Some("j3d7pt"),
        None,
        None,
        Some(seed),
        Some(8.0),
        true,
        Some(FaultSpec::Off),
    )
    .unwrap()
}

fn strip(lines: &[String]) -> Vec<String> {
    lines.iter().map(|l| strip_wall_fields(l)).collect()
}

fn frame_of_type<'a>(frames: &'a [String], ty: &str) -> &'a String {
    frames
        .iter()
        .find(|f| proto::frame_type(f).as_deref() == Some(ty))
        .unwrap_or_else(|| panic!("no `{ty}` frame in {frames:#?}"))
}

#[test]
fn served_session_matches_direct_cli_run() {
    let server = LoopbackServer::start(2, 4);
    let req = quick_req(1);
    let frames = server.tune(&req);

    // Control envelope: admission ack first, terminal summary last.
    assert!(frames[0].contains("\"type\":\"accepted\""), "{}", frames[0]);
    let done_frame = frames.last().unwrap();
    assert!(done_frame.contains("\"type\":\"session_done\""), "{done_frame}");
    assert!(done_frame.contains("\"state\":\"done\""), "{done_frame}");

    // The streamed journal is schema-valid, exactly as --journal writes it.
    let (journal, _control) = split_stream(&frames);
    schema::validate_journal(&journal).expect("streamed journal validates");

    // Byte-identical to the same request run in-process (the CLI path),
    // modulo wall-clock fields.
    let tel = Telemetry::in_memory();
    let direct = run_session(&req, &tel, None).expect("direct run succeeds");
    let direct_lines = tel.lines().unwrap();
    assert_eq!(strip(&journal), strip(&direct_lines), "served stream != direct CLI stream");

    // The session_done summary carries the direct run's outcome, bit for bit.
    let v = json::parse(done_frame).unwrap();
    let info = DoneInfo::new(&direct);
    let f64_bits = |key: &str| v.get(key).and_then(Value::as_f64).map(hex_bits);
    assert_eq!(f64_bits("best_ms"), Some(hex_bits(info.best_ms)));
    assert_eq!(f64_bits("baseline_ms"), Some(hex_bits(info.baseline_ms)));
    assert_eq!(f64_bits("search_s"), Some(hex_bits(info.search_s)));
    assert_eq!(v.get("evaluations").and_then(Value::as_u64), Some(info.evaluations));
    assert_eq!(v.get("setting").and_then(Value::as_str), Some(info.setting.as_str()));

    // Golden fixture: the full wire journal, wall fields stripped.
    check_golden("serve_stream", &(strip(&journal).join("\n") + "\n"));

    // status and watch replay agree after the fact.
    let status = server.raw(&proto::session_request_line("status", 0));
    assert!(status[0].contains("\"state\":\"done\""), "{}", status[0]);
    let replay = server.raw(&proto::session_request_line("watch", 0));
    let (replay_journal, _) = split_stream(&replay);
    assert_eq!(strip(&replay_journal), strip(&journal), "watch replay drifted");

    let bye = server.shutdown();
    assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
    assert!(bye[0].contains("\"sessions_completed\":1"), "{}", bye[0]);
}

#[test]
fn the_largest_seed_json_holds_runs_as_given_and_a_larger_one_is_refused() {
    // A seed crosses the wire as a JSON number, which holds every integer
    // up to 2^53 - 1 exactly: that one streams the direct run's journal,
    // and 2^53 + 1, which would parse as 2^53, gets an error frame
    // instead of another seed's run.
    let server = LoopbackServer::start(1, 1);
    let req = quick_req(MAX_SAFE_INTEGER);
    let frames = server.tune(&req);
    assert!(frames.last().unwrap().contains("\"state\":\"done\""), "{frames:#?}");
    let (journal, _control) = split_stream(&frames);
    let meta = journal.iter().find(|l| l.contains("\"type\":\"run_meta\"")).unwrap();
    assert!(meta.contains("\"seed\":9007199254740991"), "{meta}");
    let tel = Telemetry::in_memory();
    run_session(&req, &tel, None).expect("direct run succeeds");
    assert_eq!(strip(&journal), strip(&tel.lines().unwrap()), "served != direct");

    let line = proto::tune_request_line(&req).replace("9007199254740991", "9007199254740993");
    let reply = server.raw(&line);
    assert_eq!(reply.len(), 1, "error is the whole reply: {reply:#?}");
    assert_eq!(proto::frame_type(&reply[0]).as_deref(), Some("error"), "{}", reply[0]);
    assert!(reply[0].contains("`seed` must be an integer from 0 to 2^53 - 1"), "{}", reply[0]);
    server.shutdown();
}

#[test]
fn concurrent_identical_requests_stream_identically() {
    let server = LoopbackServer::start(2, 4);
    let req = quick_req(5);
    let (a, b) = std::thread::scope(|s| {
        let ta = s.spawn(|| server.tune(&req));
        let tb = s.spawn(|| server.tune(&req));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    let (ja, ca) = split_stream(&a);
    let (jb, cb) = split_stream(&b);
    assert_eq!(strip(&ja), strip(&jb), "concurrent identical requests diverged");
    // Terminal summaries are identical except for the session id.
    let da = frame_of_type(&ca, "session_done")
        .replace("\"session\":0", "\"session\":N")
        .replace("\"session\":1", "\"session\":N");
    let db = frame_of_type(&cb, "session_done")
        .replace("\"session\":0", "\"session\":N")
        .replace("\"session\":1", "\"session\":N");
    assert_eq!(da, db);
    server.shutdown();
}

#[test]
fn concurrent_sessions_share_the_process_memo() {
    // (cheby, v100) is this test's private registry key: no other test in
    // this binary tunes that pair, so the shared memo's counters are ours.
    let req = TuneRequest::build(
        Some("cheby"),
        Some("v100"),
        None,
        Some(3),
        Some(6.0),
        true,
        Some(FaultSpec::Off),
    )
    .unwrap();
    let spec = cst_stencil::spec_by_name("cheby").unwrap();
    let arch = cst_gpu_sim::GpuArch::by_name("v100").unwrap();
    let memo = cst_gpu_sim::registry::shared_memo(&spec, &arch);

    let server = LoopbackServer::start(2, 4);
    let first = server.tune(&req);
    assert!(first.last().unwrap().contains("\"state\":\"done\""));
    let after_first = memo.stats();
    let len_first = memo.len();
    assert!(len_first > 0, "first session must populate the shared memo");

    // Two more sessions, same request, running concurrently: every record
    // they need is already cached, so the memo neither grows nor recomputes
    // — it only serves hits, from both sessions at once.
    let (b, c) = std::thread::scope(|s| {
        let tb = s.spawn(|| server.tune(&req));
        let tc = s.spawn(|| server.tune(&req));
        (tb.join().unwrap(), tc.join().unwrap())
    });
    let after = memo.stats();
    assert_eq!(memo.len(), len_first, "warm sessions must not grow the memo");
    assert_eq!(after.misses, after_first.misses, "warm sessions must not recompute");
    assert!(after.hits > after_first.hits, "warm sessions must hit the shared cache");

    // Sharing is invisible in the results: all three streams are identical.
    let (ja, _) = split_stream(&first);
    let (jb, _) = split_stream(&b);
    let (jc, _) = split_stream(&c);
    assert_eq!(strip(&ja), strip(&jb), "shared memo changed a session stream");
    assert_eq!(strip(&jb), strip(&jc), "concurrent warm sessions diverged");
    server.shutdown();
}

#[test]
fn kernel_tuner_request_streams_and_gates_cleanly() {
    // A request naming a kernel-native tuner (forest) must stream like
    // any other: schema-valid journal, byte-identical to the in-process
    // session path, pinned as a wire fixture, and clean through the
    // observatory gate.
    let server = LoopbackServer::start(2, 4);
    let req = TuneRequest::build(
        Some("j3d7pt"),
        None,
        Some("forest"),
        Some(2),
        Some(8.0),
        true,
        Some(FaultSpec::Off),
    )
    .unwrap();
    let frames = server.tune(&req);
    assert!(frames[0].contains("\"type\":\"accepted\""), "{}", frames[0]);
    let done = frames.last().unwrap();
    assert!(done.contains("\"type\":\"session_done\""), "{done}");
    assert!(done.contains("\"state\":\"done\""), "{done}");

    let (journal, _control) = split_stream(&frames);
    schema::validate_journal(&journal).expect("streamed kernel-tuner journal validates");

    let tel = Telemetry::in_memory();
    run_session(&req, &tel, None).expect("direct run succeeds");
    assert_eq!(strip(&journal), strip(&tel.lines().unwrap()), "served != direct");

    check_golden("serve_stream_forest", &(strip(&journal).join("\n") + "\n"));

    // Gates cleanly: the stream summarizes under cst-obs and a run
    // self-gated against its own summary reports zero drift.
    let summary = cst_obs::summarize("serve_stream_forest", &journal).expect("summarize");
    let diff = cst_obs::diff_runs(&summary, &summary);
    let gate = cst_obs::evaluate_gate(&diff);
    assert_eq!(gate.exit_code(), 0, "kernel-tuner journal must self-gate clean");

    server.shutdown();
}

#[test]
fn metrics_frame_is_deterministic_and_validates() {
    // The shared-memo rows are wall-class and stripped from the golden:
    // every daemon of this binary shares the process's memos, so they
    // list every (stencil, arch) pair the binary has tuned so far.
    let server = LoopbackServer::start(2, 4);
    let req = TuneRequest::build(
        Some("rhs4center"),
        Some("v100"),
        None,
        Some(4),
        Some(6.0),
        true,
        Some(FaultSpec::Off),
    )
    .unwrap();
    let frames = server.tune(&req);
    assert!(frames.last().unwrap().contains("\"state\":\"done\""));

    let reply = server.raw(&proto::metrics_request_line());
    assert_eq!(reply.len(), 1, "metrics is a one-frame reply: {reply:#?}");
    let frame = &reply[0];
    proto::validate_metrics_frame(frame).expect("well-formed metrics frame");
    // Metrics frames are control frames, never journal records.
    assert!(proto::is_protocol_frame(frame), "{frame}");

    // The deterministic core: wall fields stripped, byte-stable, pinned.
    let core = strip_wall_fields(frame);
    assert!(!core.contains("wall"), "wall state leaked into the core: {core}");
    check_golden("serve_metrics", &(core.clone() + "\n"));

    // A second poll moves exactly its own request counter.
    let again = server.raw(&proto::metrics_request_line());
    let core2 = strip_wall_fields(&again[0]);
    assert_eq!(core2, core.replace("\"requests_metrics\":1", "\"requests_metrics\":2"));

    // The sessionless status summary agrees with the session counts.
    let status = server.raw(&proto::status_summary_request_line());
    assert!(status[0].contains("\"done\":1"), "{}", status[0]);
    assert!(status[0].contains("\"stencil\":\"rhs4center\""), "{}", status[0]);
    server.shutdown();
}

#[test]
fn metrics_requests_do_not_perturb_tuning() {
    // Identical requests on two daemons — one polled with metrics and
    // status requests throughout its run, one left alone — must stream
    // byte-identical journals: observability is strictly read-only.
    let req = quick_req(9);
    let quiet = LoopbackServer::start(2, 4);
    let quiet_frames = quiet.tune(&req);
    quiet.shutdown();

    let polled = LoopbackServer::start(2, 4);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let frames = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut polls = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let reply = polled.raw(&proto::metrics_request_line());
                proto::validate_metrics_frame(&reply[0]).expect("mid-run metrics frame");
                polled.raw(&proto::status_summary_request_line());
                polls += 1;
            }
            polls
        });
        let frames = polled.tune(&req);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let polls = poller.join().unwrap();
        assert!(polls >= 1, "poller must observe the run");
        frames
    });
    polled.shutdown();

    let (ja, _) = split_stream(&quiet_frames);
    let (jb, _) = split_stream(&frames);
    assert_eq!(strip(&ja), strip(&jb), "metrics polling perturbed the tuned stream");
}

#[test]
fn overload_gets_a_clean_busy_rejection() {
    // Paused workers: both admitted sessions stay queued, so the third
    // request sees a deterministic load snapshot worth pinning.
    let server = LoopbackServer::start_paused(1, 1);
    let mut first = server.connect();
    first.send_line(&proto::tune_request_line(&quick_req(0))).unwrap();
    assert!(first.next_frame().unwrap().unwrap().contains("\"type\":\"accepted\""));
    let mut second = server.connect();
    second.send_line(&proto::tune_request_line(&quick_req(0))).unwrap();
    assert!(second.next_frame().unwrap().unwrap().contains("\"type\":\"accepted\""));

    let third = server.tune(&quick_req(0));
    assert_eq!(third.len(), 1, "busy is the whole reply: {third:#?}");
    check_golden("serve_busy", &(third[0].clone() + "\n"));

    // Cancelling the queued sessions unblocks their watchers and the drain.
    for id in [0u64, 1] {
        let reply = server.raw(&proto::session_request_line("cancel", id));
        assert!(reply[0].contains("\"state\":\"cancelled\""), "{}", reply[0]);
    }
    let done = first.next_frame().unwrap().unwrap();
    assert!(done.contains("\"type\":\"session_done\"") && done.contains("cancelled"), "{done}");
    assert_eq!(first.next_frame().unwrap(), None, "stream closes after terminal frame");
    let done = second.next_frame().unwrap().unwrap();
    assert!(done.contains("cancelled"), "{done}");

    let bye = server.shutdown();
    assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
}

#[test]
fn an_over_long_request_line_gets_an_error_frame_and_the_daemon_serves_on() {
    // A client that sends a whole cap of bytes without a newline, and then
    // neither ends the line nor closes, is answered at the cap: the daemon
    // stops reading there instead of growing the line until it times out.
    // One that sends past the cap reads the same frame: the daemon reads
    // and discards the rest instead of resetting the connection.
    use cst_serve::server::MAX_REQUEST_LINE_BYTES;
    use std::io::{BufRead, BufReader, Write};
    let server = LoopbackServer::start(1, 1);
    let cap = MAX_REQUEST_LINE_BYTES as usize;
    for sent in [cap, cap + (64 << 10)] {
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("loopback connect");
        stream.set_read_timeout(Some(std::time::Duration::from_secs(120))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        assert_eq!(proto::frame_type(hello.trim_end()).as_deref(), Some("hello"), "{hello}");
        stream.write_all(&vec![b'x'; sent]).unwrap();
        let reply: Vec<String> = reader.lines().map(|l| l.expect("reply line")).collect();
        assert_eq!(reply.len(), 1, "{sent} bytes: error is the whole reply: {reply:#?}");
        assert_eq!(proto::frame_type(&reply[0]).as_deref(), Some("error"), "{}", reply[0]);
        assert!(reply[0].contains("request line exceeds"), "{}", reply[0]);
    }

    let metrics = server.raw(&proto::metrics_request_line());
    assert!(metrics[0].contains("\"requests_invalid\":2"), "{}", metrics[0]);
    let frames = server.tune(&quick_req(1));
    assert!(frames.last().unwrap().contains("\"state\":\"done\""), "{frames:#?}");
    let bye = server.shutdown();
    assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
}

#[test]
fn a_hostile_deeply_nested_request_gets_an_error_frame_and_the_daemon_serves_on() {
    // Without the parser's depth cap, 1 MiB of `[` in one request line
    // overflows the handler's stack and aborts the whole daemon.
    let server = LoopbackServer::start(1, 1);
    let reply = server.raw(&"[".repeat(1 << 20));
    assert_eq!(reply.len(), 1, "error is the whole reply: {reply:#?}");
    assert_eq!(proto::frame_type(&reply[0]).as_deref(), Some("error"), "{}", reply[0]);
    assert!(reply[0].contains("nesting deeper than"), "{}", reply[0]);

    let frames = server.tune(&quick_req(1));
    assert!(frames.last().unwrap().contains("\"state\":\"done\""), "{frames:#?}");
    let bye = server.shutdown();
    assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
}

#[test]
fn a_restarted_daemon_keeps_its_predecessors_summaries() {
    // Session ids restart at 0 with each daemon, so the second daemon's
    // first session has the first one's archive name; it must archive
    // beside that summary, never over it.
    let dir = std::env::temp_dir().join(format!("cst_serve_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for tuner in ["cstuner", "random"] {
        let cfg = cst_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 1,
            archive: Some(dir.clone()),
        };
        let handle = cst_serve::Server::spawn(&cfg).unwrap();
        let addr = handle.addr.to_string();
        let req = TuneRequest { tuner: tuner.to_string(), ..quick_req(0) };
        let frames = cst_serve::roundtrip(&addr, &proto::tune_request_line(&req)).unwrap();
        assert!(frames.last().unwrap().contains("\"state\":\"done\""), "{frames:#?}");
        cst_serve::roundtrip(&addr, &proto::shutdown_request_line()).unwrap();
        handle.join();
    }
    let store = cst_obs::JournalStore::open(&dir).unwrap();
    assert_eq!(store.list().unwrap(), ["s000-j3d7pt-seed0", "s000-j3d7pt-seed0-1"]);
    let tuners: Vec<String> = store.load_all().unwrap().into_iter().map(|s| s.tuner).collect();
    assert_eq!(tuners, ["cstuner", "random"]);
    let _ = std::fs::remove_dir_all(&dir);
}
