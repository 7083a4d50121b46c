//! The served workloads: a child `cstuner serve` per round and a client
//! in this process. Every round starts a fresh daemon, so a round's cost
//! and the daemon's memory do not depend on how many rounds came before.
//! Latencies are client timestamps on `hello`, `accepted`, the first
//! journal record and `session_done`.

use crate::common::{cap_round, check_all, try_reap, Collected, Ctx, Outcome, Sample};
use crate::gen;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{layer_totals, Tracer};
use cst_gpu_sim::GpuArch;
use cst_obs::JournalStore;
use cst_serve::proto;
use cst_serve::{find_stencil, run_session, DoneInfo, TuneRequest};
use cst_telemetry::json::{self, Value};
use cst_telemetry::{strip_wall_fields, Telemetry};
use cst_transfer::{warm_seeds, KnowledgeBase, DEFAULT_TOP_K};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single read from the daemon may block before the run
/// fails instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A child daemon. Dropping it kills the process and reaps it, so a
/// failed or panicking run leaves nothing behind.
pub struct Daemon {
    child: Child,
    reaped: bool,
    stdout: BufReader<ChildStdout>,
    /// The address from its `listening on` line.
    pub addr: String,
}

impl Daemon {
    /// Start `cstuner serve` on an ephemeral loopback port and wait for
    /// its `listening on` line.
    pub fn spawn(cstuner: &Path, args: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(cstuner)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cstuner.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut d = Daemon { child, reaped: false, stdout, addr: String::new() };
        let mut line = String::new();
        d.stdout.read_line(&mut line).map_err(|e| format!("daemon stdout: {e}"))?;
        d.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("daemon did not report its address (got `{}`)", line.trim()))?
            .to_string();
        Ok(d)
    }

    /// Drain and stop the daemon, reap it, and return its peak resident
    /// set size in KiB.
    pub fn shutdown(mut self) -> Result<u64, String> {
        let mut c = Conn::open(&self.addr)?;
        c.send(&proto::shutdown_request_line())?;
        let bye = c.next()?;
        if frame_type(&bye) != "bye" {
            return Err(format!("shutdown answered `{bye}`"));
        }
        let deadline = Instant::now() + READ_TIMEOUT;
        loop {
            match try_reap(self.child.id())? {
                Some((status, rss_kb)) => {
                    self.reaped = true;
                    if status != 0 {
                        return Err(format!("daemon exited with wait status {status}"));
                    }
                    return Ok(rss_kb);
                }
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                None => return Err("daemon did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One protocol connection, past the `hello` frame. Not
/// `cst_serve::Connection`, whose reads never time out: a stuck daemon
/// must fail the run, not hang it.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        let mut c = Conn { w, r };
        let hello = c.next()?;
        if frame_type(&hello) != "hello" {
            return Err(format!("expected hello, got `{hello}`"));
        }
        Ok(c)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.w.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))
    }

    fn next(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.r.read_line(&mut line) {
            Ok(0) => Err("daemon closed the stream".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The `type` of a frame or journal record, read from its fixed prefix
/// (every line the daemon writes starts `{"type":"…"`), so the client
/// does not parse the records it only forwards.
fn frame_type(line: &str) -> &str {
    line.strip_prefix("{\"type\":\"").and_then(|r| r.split('"').next()).unwrap_or("")
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("frame lacks `{key}`"))
}

/// A served tune, with the client's timestamps.
struct Served {
    session: u64,
    t0: Instant,
    hello: Instant,
    accepted: Instant,
    first: Instant,
    done: Instant,
    frames: u64,
    bytes: u64,
    done_frame: String,
    outcome: Outcome,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Submit one tune and follow its stream to `session_done`.
fn tune(addr: &str, req: &TuneRequest) -> Result<Served, String> {
    let t0 = Instant::now();
    let mut c = Conn::open(addr)?;
    let hello = Instant::now();
    c.send(&proto::tune_request_line(req))?;
    let acc = c.next()?;
    if frame_type(&acc) != "accepted" {
        return Err(format!("not admitted: {acc}"));
    }
    let accepted = Instant::now();
    let session =
        json::parse(&acc)?.get("session").and_then(Value::as_u64).ok_or("no session id")?;
    let (mut first, mut frames, mut bytes) = (None, 0u64, 0u64);
    let done_frame = loop {
        let line = c.next()?;
        frames += 1;
        bytes += line.len() as u64 + 1;
        if frame_type(&line) == "session_done" {
            break line;
        }
        first.get_or_insert_with(Instant::now);
    };
    let done = Instant::now();
    let v = json::parse(&done_frame)?;
    if field(&v, "state")?.as_str() != Some("done") {
        return Err(format!("session failed: {done_frame}"));
    }
    let num = |k: &str| field(&v, k)?.as_f64().ok_or_else(|| format!("`{k}` is not a number"));
    let outcome = Outcome {
        best_ms: num("best_ms")?,
        baseline_ms: num("baseline_ms")?,
        setting: field(&v, "setting")?.as_str().ok_or("`setting` is not a string")?.to_string(),
        evaluations: field(&v, "evaluations")?.as_u64().ok_or("`evaluations` is not a count")?,
    };
    Ok(Served {
        session,
        t0,
        hello,
        accepted,
        first: first.ok_or("session streamed no journal records")?,
        done,
        frames,
        bytes,
        done_frame,
        outcome,
    })
}

/// Replay a finished session's stream; returns (ms, frames, final frame).
fn watch(addr: &str, session: u64) -> Result<(f64, u64, String), String> {
    let t0 = Instant::now();
    let mut c = Conn::open(addr)?;
    c.send(&proto::session_request_line("watch", session))?;
    let mut frames = 0;
    loop {
        let line = c.next()?;
        frames += 1;
        if frame_type(&line) == "session_done" {
            return Ok((ms(t0, Instant::now()), frames, line));
        }
    }
}

/// One `metrics` poll; returns (ms, parsed frame).
fn metrics(addr: &str) -> Result<(f64, Value), String> {
    let t0 = Instant::now();
    let mut c = Conn::open(addr)?;
    c.send(&proto::metrics_request_line())?;
    let line = c.next()?;
    let took = ms(t0, Instant::now());
    proto::validate_metrics_frame(&line)?;
    Ok((took, json::parse(&line)?))
}

/// The daemon's view at the end of a round.
#[derive(Default)]
struct DaemonStats {
    busy: f64,
    warm_hit: f64,
    warm_miss: f64,
    memo_hits: f64,
    memo_lookups: f64,
    memo_entries: Vec<f64>,
}

impl DaemonStats {
    fn add(&mut self, m: &Value) {
        let counter = |k: &str| m.get("counters").and_then(|c| c.get(k)).and_then(Value::as_f64);
        self.busy += counter("admission_busy").unwrap_or(0.0);
        self.warm_hit += counter("warm_kb_hit").unwrap_or(0.0);
        self.warm_miss += counter("warm_kb_miss").unwrap_or(0.0);
        let mut entries = 0.0;
        for row in m.get("wall_memo").and_then(Value::as_arr).unwrap_or(&[]) {
            let n = |k: &str| row.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            self.memo_hits += n("hits");
            self.memo_lookups += n("hits") + n("misses");
            entries += n("entries");
        }
        self.memo_entries.push(entries);
    }
}

/// Per-layer serve measurements of traced rounds.
#[derive(Default)]
struct ServeLab {
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    admit_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    first_ms: Vec<f64>,
    frames: Vec<f64>,
    bytes: Vec<f64>,
    watch_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    daemon: DaemonStats,
}

impl ServeLab {
    /// Fold one session in; `tr` records its spans in traced rounds.
    fn session(&mut self, s: &Served, tr: Option<&mut Tracer>, id: u64) {
        let total = ms(s.t0, s.done);
        let Some(tr) = tr else {
            self.untraced_ms.push(total);
            return;
        };
        self.traced_ms.push(total);
        self.connect_ms.push(ms(s.t0, s.hello));
        self.admit_ms.push(ms(s.hello, s.accepted));
        self.queue_ms.push(ms(s.accepted, s.first));
        self.stream_ms.push(ms(s.first, s.done));
        self.first_ms.push(ms(s.t0, s.first));
        self.frames.push(s.frames as f64);
        self.bytes.push(s.bytes as f64);
        let root = tr.record("session", 0, id, s.t0, s.done - s.t0, 1);
        for (name, a, b) in [
            ("serve.connect", s.t0, s.hello),
            ("serve.admit", s.hello, s.accepted),
            ("serve.queue", s.accepted, s.first),
            ("serve.stream", s.first, s.done),
        ] {
            tr.record(name, root, id, a, b.saturating_duration_since(a), 1);
        }
    }

    fn layers(&self, c: &mut Collected) {
        let p = |xs: &[f64], q| if xs.is_empty() { 0.0 } else { percentile(&sorted(xs), q) };
        let l = &mut c.layers;
        l.insert("serve.connect_ms_p50", p(&self.connect_ms, 50));
        l.insert("serve.admit_ms_p50", p(&self.admit_ms, 50));
        l.insert("serve.queue_ms_p50", p(&self.queue_ms, 50));
        l.insert("serve.stream_ms_p50", p(&self.stream_ms, 50));
        l.insert("serve.first_record_ms_p50", p(&self.first_ms, 50));
        l.insert("serve.first_record_ms_p90", p(&self.first_ms, 90));
        l.insert("serve.frames_per_session", mean(&self.frames));
        l.insert("serve.bytes_per_session", mean(&self.bytes));
        l.insert("serve.watch_replay_ms_p50", p(&self.watch_ms, 50));
        l.insert("serve.metrics_poll_ms_p50", p(&self.poll_ms, 50));
        let d = &self.daemon;
        l.insert("serve.admission_busy", d.busy);
        l.insert("serve.warm_kb_hit", d.warm_hit);
        l.insert("serve.warm_kb_miss", d.warm_miss);
        l.insert(
            "gpu_sim.memo.hit_ratio",
            if d.memo_lookups > 0.0 { d.memo_hits / d.memo_lookups } else { 0.0 },
        );
        l.insert("gpu_sim.memo.entries", mean(&d.memo_entries));
        l.insert("trace.sessions", self.traced_ms.len() as f64);
        let overhead = if self.traced_ms.is_empty() || self.untraced_ms.is_empty() {
            0.0
        } else {
            median(&self.traced_ms) - median(&self.untraced_ms)
        };
        l.insert("trace.overhead_ms", overhead);
    }
}

/// What one serve-fleet client brings back from a round.
#[derive(Default)]
struct ClientRun {
    served: Vec<(usize, Result<Served, String>)>,
    watch_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    failures: Vec<String>,
}

/// Sessions between a serve-fleet client's `watch` + `metrics` pair (2
/// in the smoke tests, whose rounds are short).
const WATCH_EVERY: usize = if cfg!(test) { 2 } else { 8 };

/// A serve-fleet client: a closed loop over its share of the round (every
/// other request); after every [`WATCH_EVERY`]th session it replays that
/// session with `watch`, then polls `metrics`.
fn fleet_client(addr: &str, reqs: &[TuneRequest], client: usize) -> ClientRun {
    let mut out = ClientRun::default();
    for (k, idx) in (client..reqs.len()).step_by(2).enumerate() {
        let r = tune(addr, &reqs[idx]);
        if (k + 1) % WATCH_EVERY == 0 {
            if let Ok(s) = &r {
                match watch(addr, s.session) {
                    Ok((t, frames, done)) if frames == s.frames && done == s.done_frame => {
                        out.watch_ms.push(t)
                    }
                    Ok(_) => out.failures.push(format!(
                        "watch of session {} replayed a different stream",
                        s.session
                    )),
                    Err(e) => out.failures.push(format!("watch of session {}: {e}", s.session)),
                }
                match metrics(addr) {
                    Ok((t, _)) => out.poll_ms.push(t),
                    Err(e) => out.failures.push(format!("metrics poll: {e}")),
                }
            }
        }
        out.served.push((idx, r));
    }
    out
}

/// The in-process `session_done` frame for a request, for comparison with
/// the served one.
fn direct_frame(req: &TuneRequest, session: u64) -> Result<String, String> {
    let out = run_session(req, &Telemetry::noop(), None).map_err(|e| e.to_string())?;
    Ok(proto::session_done_frame(session, "done", Some(&DoneInfo::new(&out)), None))
}

/// Served sessions compared with in-process runs of the same request.
const DIRECT_CHECKS: usize = 16;

/// Record a served session as a sample (or a failure).
fn take(c: &mut Collected, round: u64, idx: usize, req: &TuneRequest, r: &Result<Served, String>) {
    c.attempted += 1;
    match r {
        Ok(s) => c.samples.push(Sample {
            round: round as usize,
            idx,
            req: req.clone(),
            at: s.t0,
            ms: ms(s.t0, s.done),
            outcome: s.outcome.clone(),
        }),
        Err(e) => c.fail(format!("round {round} request {idx} ({}): {e}", gen::identity(req))),
    }
}

/// The `k`-th pass over the rounds: `(round, traced)`. A traced run runs
/// every round twice, traced and not, in alternating order, so the
/// tracing overhead compares identical inputs.
fn pass(trace: bool, k: u64) -> (u64, bool) {
    if !trace {
        return (k, false);
    }
    let round = k / 2;
    (round, k.is_multiple_of(2) != (round % 2 == 1))
}

/// Whether another pass is due: always a first one, then until the
/// measured time is up, and a traced run ends on a whole pair.
fn more(ctx: &Ctx, c: &Collected, k: u64) -> bool {
    k == 0 || c.measured_s < ctx.seconds || (ctx.trace && k % 2 == 1)
}

/// Machine-speed probes between two serve-fleet rounds (with no daemon
/// running, so the probe does not compete with its workers).
const ROUND_PROBES: usize = 8;

/// serve-fleet: two closed-loop clients against a two-worker daemon.
pub fn serve_fleet(ctx: &Ctx) -> Result<Collected, String> {
    let mut c = Collected::default();
    let mut lab = ServeLab::default();
    let epoch = Instant::now();
    let mut spans = Vec::new();
    let mut direct: Vec<(TuneRequest, u64, String)> = Vec::new();
    let mut rss = Vec::new();
    let mut k = 0u64;
    while more(ctx, &c, k) {
        let (round, traced) = pass(ctx.trace, k);
        c.speed.probe(ROUND_PROBES);
        let t = Instant::now();
        let daemon = Daemon::spawn(&ctx.cstuner, &["--workers", "2"])?;
        c.setup_s.push(t.elapsed().as_secs_f64());
        let reqs = cap_round(gen::serve_fleet(ctx.seed, round));
        let t = Instant::now();
        let (r0, r1) = std::thread::scope(|s| {
            let other = s.spawn(|| fleet_client(&daemon.addr, &reqs, 1));
            let mine = fleet_client(&daemon.addr, &reqs, 0);
            (mine, other.join().expect("client thread"))
        });
        c.measured_s += t.elapsed().as_secs_f64();
        for (client, run) in [r0, r1].into_iter().enumerate() {
            let mut tr = Tracer::new(epoch, (k * 2 + client as u64 + 1) << 32);
            for (idx, r) in &run.served {
                take(&mut c, round, *idx, &reqs[*idx], r);
                if let Ok(s) = r {
                    let id = round * 1000 + *idx as u64;
                    lab.session(s, traced.then_some(&mut tr), id);
                    if k == 0 && *idx < DIRECT_CHECKS {
                        direct.push((reqs[*idx].clone(), s.session, s.done_frame.clone()));
                    }
                }
            }
            if traced {
                lab.watch_ms.extend(&run.watch_ms);
                lab.poll_ms.extend(&run.poll_ms);
            }
            for f in run.failures {
                c.fail(format!("round {round}: {f}"));
            }
            spans.extend(tr.spans);
        }
        let (_, m) = metrics(&daemon.addr)?;
        if traced || !ctx.trace {
            lab.daemon.add(&m);
        }
        rss.push(daemon.shutdown()? as f64);
        k += 1;
    }
    c.peak_rss_kb = median(&rss) as u64;
    check_all(&mut c);
    for (req, session, served) in direct {
        match direct_frame(&req, session) {
            Ok(f) if f == served => {}
            Ok(f) => c.fail(format!("served `{served}` != direct `{f}`")),
            Err(e) => c.fail(format!("direct run of {}: {e}", gen::identity(&req))),
        }
    }
    if ctx.trace {
        lab.layers(&mut c);
        c.spans = spans;
    }
    Ok(c)
}

/// Seed a warm archive: the fixed seed sessions, run in process, their
/// wall-stripped journals ingested, then mined into `kb.json`.
fn seed_archive(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = JournalStore::open(dir)?;
    for (i, req) in gen::warm_seed_sessions().iter().enumerate() {
        let tel = Telemetry::in_memory();
        run_session(req, &tel, None).map_err(|e| e.to_string())?;
        let lines: Vec<String> =
            tel.lines().expect("in-memory sink").iter().map(|l| strip_wall_fields(l)).collect();
        store.ingest_lines(&format!("seed{i}-{}", req.stencil), &lines)?;
    }
    KnowledgeBase::build(&store)?.kb.save(dir)
}

/// transfer-layer probes of a traced warm-archive round.
#[derive(Default)]
struct TransferLab {
    kb_bytes: Vec<f64>,
    parse_bytes: f64,
    parse_s: f64,
    n_train: Vec<f64>,
    store_runs: Vec<f64>,
}

/// Between sessions, with the daemon idle: the read-only calls a warm
/// session and the archive refresh make, timed one by one against the
/// live archive, for the next request's target.
fn probe(
    dir: &Path,
    next: &TuneRequest,
    tr: &mut Tracer,
    id: u64,
    lab: &mut TransferLab,
) -> Result<(), String> {
    let t = Instant::now();
    let kb = KnowledgeBase::load(dir)?.ok_or("archive has no kb.json")?;
    tr.record("transfer.kb_load", 0, id, t, t.elapsed(), 1);

    let text = std::fs::read_to_string(KnowledgeBase::path_in(dir)).map_err(|e| e.to_string())?;
    let t = Instant::now();
    json::parse(text.trim())?;
    let took = t.elapsed();
    tr.record("telemetry.json_parse", 0, id, t, took, 1);
    lab.kb_bytes.push(text.len() as f64);
    lab.parse_bytes += text.len() as f64;
    lab.parse_s += took.as_secs_f64();

    let stencil = find_stencil(&next.stencil).expect("validated stencil").spec.name;
    let arch = GpuArch::by_name(&next.arch).expect("validated arch").name;
    let t = Instant::now();
    let w = warm_seeds(&kb, stencil, arch, DEFAULT_TOP_K, next.seed);
    tr.record("transfer.warm_seeds", 0, id, t, t.elapsed(), 1);
    lab.n_train.push(w.n_train as f64);

    let t = Instant::now();
    let store = JournalStore::open(dir)?;
    KnowledgeBase::build(&store)?;
    tr.record("transfer.kb_build", 0, id, t, t.elapsed(), 1);
    lab.store_runs.push(store.list()?.len() as f64);
    Ok(())
}

/// warm-archive: one client, one worker, every request warm-started from
/// the daemon's own archive, which every finished session grows.
pub fn warm_archive(ctx: &Ctx) -> Result<Collected, String> {
    let mut c = Collected::default();
    let mut lab = ServeLab::default();
    let mut tlab = TransferLab::default();
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut first: Option<(TuneRequest, u64, String)> = None;
    let mut rss = Vec::new();
    let mut k = 0u64;
    while more(ctx, &c, k) {
        let (round, traced) = pass(ctx.trace, k);
        let dir = ctx.tmp.join(format!("archive-{k}"));
        let store = dir.to_str().ok_or("scratch path is not UTF-8")?.to_string();
        let t = Instant::now();
        seed_archive(&dir)?;
        let daemon = Daemon::spawn(&ctx.cstuner, &["--workers", "1", "--archive", &store])?;
        c.setup_s.push(t.elapsed().as_secs_f64());
        let reqs = cap_round(gen::warm_archive(ctx.seed, round, &store));
        let (t, probed) = (Instant::now(), c.speed.spent_s);
        for (idx, req) in reqs.iter().enumerate() {
            let r = tune(&daemon.addr, req);
            c.speed.tick();
            take(&mut c, round, idx, req, &r);
            let id = round * 1000 + idx as u64;
            if let Ok(s) = &r {
                lab.session(s, traced.then_some(&mut tr), id);
                if k == 0 && idx == 0 {
                    first = Some((req.clone(), s.session, s.done_frame.clone()));
                }
            }
            if traced {
                let next = reqs.get(idx + 1).unwrap_or(req);
                if let Err(e) = probe(&dir, next, &mut tr, id, &mut tlab) {
                    c.fail(format!("round {round} probe after request {idx}: {e}"));
                }
            }
        }
        c.measured_s += t.elapsed().as_secs_f64() - (c.speed.spent_s - probed);
        let (_, m) = metrics(&daemon.addr)?;
        if traced || !ctx.trace {
            lab.daemon.add(&m);
        }
        rss.push(daemon.shutdown()? as f64);
        let _ = std::fs::remove_dir_all(&dir);
        k += 1;
    }
    c.peak_rss_kb = median(&rss) as u64;
    check_all(&mut c);
    // The first session of a round sees exactly the seeded archive, so
    // an in-process warm run against a fresh copy must match it.
    if let Some((mut req, session, served)) = first {
        let dir = ctx.tmp.join("archive-direct");
        seed_archive(&dir)?;
        req.warm = Some(dir.to_str().ok_or("scratch path is not UTF-8")?.to_string());
        match direct_frame(&req, session) {
            Ok(f) if f == served => {}
            Ok(f) => c.fail(format!("served warm `{served}` != direct `{f}`")),
            Err(e) => c.fail(format!("direct warm run: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if ctx.trace {
        lab.layers(&mut c);
        let totals = layer_totals(&tr.spans);
        let mean_ms = |name: &str| {
            totals.get(name).map(|t| t.total_ms / t.spans.max(1) as f64).unwrap_or(0.0)
        };
        let l = &mut c.layers;
        l.insert("transfer.kb_load_ms", mean_ms("transfer.kb_load"));
        l.insert("transfer.kb_bytes", mean(&tlab.kb_bytes));
        l.insert(
            "telemetry.json_parse_mb_per_s",
            if tlab.parse_s > 0.0 { tlab.parse_bytes / 1e6 / tlab.parse_s } else { 0.0 },
        );
        l.insert("transfer.warm_seeds_ms", mean_ms("transfer.warm_seeds"));
        l.insert("transfer.n_train", mean(&tlab.n_train));
        l.insert("transfer.kb_build_ms", mean_ms("transfer.kb_build"));
        l.insert("obs.store_runs", mean(&tlab.store_runs));
        c.spans = tr.spans;
    }
    Ok(c)
}
